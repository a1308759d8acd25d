import os
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhs import core
from mhs.algebra import MhsExpression
from mhs.core import (
    Composition,
    CompositionError,
    composition_parse,
    eval_mhs,
    eval_mhs_direct,
    mhs_prefix_values,
    mhs_row,
)

compositions = st.lists(st.integers(1, 4), max_size=4).map(tuple).filter(
    lambda t: sum(t) <= 6
)


def test_eval_examples():
    assert eval_mhs(0, (1,)) == 0
    assert eval_mhs(5, ()) == 1
    assert eval_mhs(2, (1,)) == Fraction(3, 2)
    assert eval_mhs(3, (1, 2)) == Fraction(5, 12)
    assert eval_mhs(6, (1,)) == Fraction(49, 20)


def test_eval_direct_examples():
    # 1/4 + 1/9 + 1/18, double loop over 1 <= k1 < k2 <= 3
    assert eval_mhs_direct(3, (1, 2)) == Fraction(1, 4) + Fraction(1, 9) + Fraction(1, 18)
    assert eval_mhs_direct(0, (1,)) == 0
    assert eval_mhs_direct(4, ()) == 1


def test_order_matters():
    assert eval_mhs(3, (1, 2)) != eval_mhs(3, (2, 1))


@given(compositions, st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_recursion_matches_direct(s, n):
    assert eval_mhs(n, s) == eval_mhs_direct(n, s)


@given(compositions, st.integers(0, 19))
def test_monotone_in_n(s, n):
    assert eval_mhs(n, s) >= 0
    assert eval_mhs(n, s) <= eval_mhs(n + 1, s)


@given(st.integers(1, 8), st.integers(0, 7))
def test_homogeneous_needs_enough_indices(d, n):
    value = eval_mhs(n, (1,) * d)
    if d > n:
        assert value == 0
    else:
        assert value > 0


@given(compositions, st.integers(0, 15))
def test_prefix_values_match_eval(s, n):
    row = mhs_prefix_values(n, s)
    assert len(row) == n + 1
    assert all(row[k] == eval_mhs(k, s) for k in range(n + 1))


def test_parse_examples():
    assert composition_parse("1,1,2") == Composition((1, 1, 2))
    assert composition_parse("") == Composition(())
    with pytest.raises(CompositionError):
        composition_parse("2,0")
    with pytest.raises(CompositionError):
        composition_parse("1,x")


def test_parse_exponent_shorthand():
    assert composition_parse("1^4") == Composition((1, 1, 1, 1))
    assert composition_parse("1^2,2") == Composition((1, 1, 2))
    assert composition_parse("3^2") == Composition((3, 3))


@given(compositions)
def test_parse_round_trip(s):
    comp = Composition(s)
    assert composition_parse(str(comp)) == comp


def test_composition_invariants():
    comp = Composition((2, 1, 3))
    assert comp.depth == 3
    assert comp.weight == 6
    empty = Composition()
    assert empty.depth == 0 and empty.weight == 0
    with pytest.raises(CompositionError):
        Composition((0,))
    with pytest.raises(CompositionError):
        Composition((-1, 2))


def test_cold_eval_has_no_recursion_limit():
    """A fresh process evaluates H_1500(1) and an expression at n = 600."""
    script = (
        "from fractions import Fraction\n"
        "from mhs.algebra import H\n"
        "from mhs.core import eval_mhs\n"
        "assert eval_mhs(1500, (1,)) == sum(Fraction(1, k) for k in range(1, 1501))\n"
        "assert (2 * H(1)).eval(600) == 2 * sum(Fraction(1, k) for k in range(1, 601))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_prefix_values_returns_a_copy():
    row = mhs_prefix_values(10, (1, 2))
    expected = eval_mhs(10, (1, 2))
    row[10] = Fraction(-1)
    row.append(Fraction(7))
    assert eval_mhs(10, (1, 2)) == expected == eval_mhs_direct(10, (1, 2))
    assert eval_mhs(11, (1, 2)) == eval_mhs_direct(11, (1, 2))


def test_exact_rows_only_grow(monkeypatch):
    """Sweeping n over many symbols appends each entry of each row once."""
    appended = 0
    real = core.mhs_row

    def counting(s, n, rows):
        nonlocal appended
        before = len(rows.get(s, ()))
        row = real(s, n, rows)
        appended += len(row) - before
        return row

    monkeypatch.setattr(core, "mhs_row", counting)
    symbols = 1100
    expr = MhsExpression([(((d,),), 1) for d in range(1, symbols + 1)])
    assert [expr.eval(n) for n in range(1, 3)] == [
        symbols,
        sum(1 + Fraction(1, 2**d) for d in range(1, symbols + 1)),
    ]
    for n in range(3, 7):
        expr.eval(n)
    assert appended <= symbols * 7  # rows H_0..H_6, each entry grown once


def test_threads_share_exact_rows_safely():
    """Threads growing the same rows in small steps all read correct values."""
    shapes = [(3, 1, 2), (2, 3), (1, 4, 1)]
    expected = {s: mhs_row(s, 120, {}) for s in shapes}
    errors = []

    def worker(offset):
        for n in range(120):
            s = shapes[(n + offset) % len(shapes)]
            if eval_mhs(n, s) != expected[s][n]:
                errors.append((s, n))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
