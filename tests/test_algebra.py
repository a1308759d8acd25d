import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhs import algebra
from mhs.algebra import (
    H,
    ExpressionConsistencyError,
    MhsExpression,
    N,
    NPolynomial,
    eval_expr,
    expr_equal,
    expr_mul,
    linearize,
    stuffle,
)
from mhs.core import Composition, eval_mhs
from mhs.summation import sum_product

compositions = st.lists(st.integers(1, 4), max_size=4).map(tuple).filter(
    lambda t: 1 <= sum(t) <= 5
)
small_compositions = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple).filter(
    lambda t: sum(t) <= 3
)


def delannoy(a: int, b: int) -> int:
    """Number of quasi-shuffle words of lengths a and b, by closed form."""
    return sum(comb(a, k) * comb(b, k) * 2**k for k in range(min(a, b) + 1))


def test_stuffle_examples():
    assert stuffle((1,), (1, 1)) == Counter(
        {
            Composition((1, 1, 1)): 3,
            Composition((2, 1)): 1,
            Composition((1, 2)): 1,
        }
    )
    assert stuffle((1,), (1,)) == Counter(
        {Composition((1, 1)): 2, Composition((2,)): 1}
    )
    assert stuffle((2,), ()) == Counter({Composition((2,)): 1})


@given(compositions, compositions)
@settings(max_examples=80, deadline=None)
def test_stuffle_commutative(s, t):
    assert stuffle(s, t) == stuffle(t, s)


@given(compositions, compositions)
@settings(max_examples=80, deadline=None)
def test_stuffle_weight_grading_and_count(s, t):
    expansion = stuffle(s, t)
    total_weight = sum(s) + sum(t)
    assert all(r.weight == total_weight for r in expansion)
    assert sum(expansion.values()) == delannoy(len(s), len(t))


@given(small_compositions, small_compositions, small_compositions)
@settings(max_examples=40, deadline=None)
def test_stuffle_associative(s, t, u):
    left: Counter = Counter()
    for r, m in stuffle(s, t).items():
        for r2, m2 in stuffle(r, u).items():
            left[r2] += m * m2
    right: Counter = Counter()
    for r, m in stuffle(t, u).items():
        for r2, m2 in stuffle(s, r).items():
            right[r2] += m * m2
    assert left == right


@given(compositions, compositions, st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_stuffle_eval_consistency(s, t, n):
    expansion = stuffle(s, t)
    expanded = sum(m * eval_mhs(n, r) for r, m in expansion.items())
    assert eval_mhs(n, s) * eval_mhs(n, t) == expanded


@given(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=2), min_size=3, max_size=4))
@settings(max_examples=40, deadline=None)
def test_linearize_folds_three_or_more_factors_exactly(factors):
    linear = linearize(prod(H(*f) for f in factors))
    assert all(len(mono.factors) <= 1 for mono in linear.terms())
    for n in range(9):
        assert linear.eval(n) == prod(eval_mhs(n, f) for f in factors), n


def test_stuffle_and_linearize_need_no_recursion():
    # Both once recursed per part; under a recursion limit far below the
    # depth of a factor, they must still answer.
    script = (
        "import sys\n"
        "sys.setrecursionlimit(100)\n"
        "from mhs.algebra import H\n"
        "from mhs.cli import main\n"
        "assert main(['stuffle', '1^120', '2']) == 0\n"
        "assert len((H(*(1,) * 120) * H(2)).linearize().terms()) == 241\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.count("(") == 241  # Delannoy D(120, 1) = 241 distinct terms


def test_expr_mul_is_formal():
    product = expr_mul(H(1), H(1))
    [mono] = product.terms()
    assert mono.factors == (Composition((1,)), Composition((1,)))
    assert mono.coeff == NPolynomial.one()


def test_expr_mul_scalar_bilinearity():
    expr = expr_mul(2 * N * H(2), MhsExpression.constant(3))
    assert expr == 6 * N * H(2)


def test_expr_mul_ring_laws():
    product = (H(1) + 1) * (H(1) - 1)
    assert product == H(1) * H(1) - 1


def test_linearize_examples():
    assert H(1) * H(1, 1) and linearize(H(1) * H(1, 1)) == (
        3 * H(1, 1, 1) + H(2, 1) + H(1, 2)
    )
    assert linearize(H(1) * H(1)) == 2 * H(1, 1) + H(2)
    constant = MhsExpression.constant(5)
    assert linearize(constant) == constant


def test_linearize_single_factor_postcondition():
    expr = H(1) ** 3 * H(2, 1) + (N + 1) * H(1, 1) * H(1, 1)
    for mono in linearize(expr).terms():
        assert len(mono.factors) <= 1


@given(compositions, compositions)
@settings(max_examples=40, deadline=None)
def test_linearize_idempotent(s, t):
    expr = (H(*s) * H(*t) + N * H(*s)).linearize()
    assert expr.linearize() == expr


def test_expr_equal_examples():
    assert expr_equal(H(1) ** 2, 2 * H(1, 1) + H(2))
    assert not expr_equal(H(2, 1), H(1, 2))
    assert expr_equal(MhsExpression.zero(), MhsExpression.constant(0))


def test_expr_equal_raises_when_its_two_verdicts_disagree(monkeypatch):
    # A symbolic verdict flipped by hand must be caught by the numeric guard.
    monkeypatch.setattr(MhsExpression, "is_zero", lambda self: bool(self._terms))
    with pytest.raises(ExpressionConsistencyError, match="symbolic verdict False"):
        expr_equal(H(1) ** 2, 2 * H(1, 1) + H(2))
    with pytest.raises(ExpressionConsistencyError, match="symbolic verdict True"):
        expr_equal(H(2, 1), H(1, 2))


def test_expr_equal_guard_at_scale_needs_no_fractions(monkeypatch):
    # The 189-term closed form of 1^3;2;1,2 is guarded at n = 0..190, on the
    # integer scale: evaluating it over Fractions took seconds.
    closed = sum_product([Composition.parse(x) for x in "1^3;2;1,2".split(";")])
    assert len(closed.terms()) == 189
    monkeypatch.setattr(MhsExpression, "eval", None)
    monkeypatch.setattr(algebra, "eval_mhs", None)
    assert expr_equal(closed, closed + MhsExpression.zero())
    assert not expr_equal(closed, closed + Fraction(1, 10**9) * H(2))


def test_eval_expr_examples():
    expr = (N + 1) * H(1) - N
    assert eval_expr(expr, 2) == Fraction(5, 2)
    mixed = (N + 1) * H(1, 2) + NPolynomial((3, 2)) * MhsExpression.constant(1)
    assert eval_expr(mixed, 0) == 3  # nonempty sums vanish at n = 0
    assert eval_expr(2 * H(1, 1) + H(2), 3) == Fraction(11, 6) ** 2


def test_subtraction_cancels():
    expr = (N + 1) * H(1) - N
    assert (expr - expr).is_zero()


def test_json_round_trip():
    expr = (N + 1) * H(1) * H(1, 1) - Fraction(1, 2) * H(2) + 3
    data = expr.to_json()
    assert MhsExpression.from_json(data) == expr
    rewired = json.loads(json.dumps(data))
    assert MhsExpression.from_json(rewired) == expr
    assert MhsExpression.from_json(rewired).to_json() == data


def test_npolynomial_basics():
    poly = NPolynomial((1, 2, 0))
    assert poly.degree == 1
    assert poly.eval(3) == 7
    assert (poly * poly).eval(2) == 25
    assert NPolynomial((0, 0)).is_zero()
    assert str(N + 1) == "n + 1"
    assert str(2 * N**2 - Fraction(1, 2)) == "2*n^2 - 1/2"
    assert NPolynomial.from_json(poly.to_json()) == poly


def test_npolynomial_compose():
    poly = NPolynomial((1, 1))  # n + 1
    shifted = poly.compose(NPolynomial((-1, 1)))  # evaluate at n - 1
    assert shifted == N


def test_rendering():
    expr = (N + 1) * H(1) - N
    assert str(expr) == "(n + 1)*H(1) - n"
    cubic = 2 * H(1, 1) + H(2)
    assert str(cubic) == "2*H(1,1) + H(2)"
    assert str(-(N + 1) * H(2)) == "-(n + 1)*H(2)"
    assert H(1, 1, 1).latex() == r"H_n(\{1\}^3)"
    assert (H(1) ** 2).latex() == "H_n^2(1)"
