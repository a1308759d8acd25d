import random
from fractions import Fraction

import pytest

from mhs.algebra import H, MhsExpression, N, expr_equal
from mhs.core import Composition, mhs_prefix_values
from mhs.summation import (
    RebaseError,
    known_identities,
    partial_sum_oracle,
    rebase,
    sum_product,
    sum_single,
)


def brute_partial_sums(factors, nmax):
    """sum_{k=1}^n of the factor product, for n = 0..nmax, by direct evaluation."""
    rows = [mhs_prefix_values(nmax, f) for f in factors]
    partial = Fraction(0)
    out = [partial]
    for n in range(1, nmax + 1):
        term = Fraction(1)
        for row in rows:
            term *= row[n]
        partial += term
        out.append(partial)
    return out


def test_sum_single_examples():
    assert sum_single(Composition((1,))) == (N + 1) * H(1) - N
    assert sum_single(Composition((2, 1))) == (N + 1) * H(2, 1) - N * H(2) + H(1)
    assert sum_single(Composition((1, 2))) == (N + 1) * H(1, 2) - H(1, 1)


def test_sum_single_weight_bound():
    for parts in [(1,), (3,), (2, 1), (1, 2), (1, 1, 1), (2, 2, 1)]:
        comp = Composition(parts)
        closed = sum_single(comp)
        for mono in closed.terms():
            assert sum(c.weight for c in mono.factors) <= comp.weight


def test_sum_product_examples():
    half = Fraction(1, 2)
    assert expr_equal(sum_product([(1,)]), (N + 1) * H(1) - N)
    assert expr_equal(
        sum_product([(1,), (1, 1)]),
        (N + 1) * H(1) * H(1, 1)
        + (3 * N + 1) * (H(1) - half * H(1) ** 2)
        + ((N + 1) * half) * H(2)
        - 3 * N,
    )
    assert expr_equal(
        sum_product([(1,), (1,), (1,)]),
        (N + 1) * H(1) ** 3
        + (6 * N + 3) * (H(1) - half * H(1) ** 2)
        + half * H(2)
        - 6 * N,
    )


def test_known_identities_all_derivable():
    for record in known_identities():
        assert expr_equal(sum_product(record.factors), record.rhs), record.name


def test_known_identities_content():
    records = {r.name: r for r in known_identities()}
    assert len(records) == 6
    assert records["S:2"].rhs == (N + 1) * H(1, 1) - N * H(1) + N
    assert records["S:1,1"].rhs == (N + 1) * H(1) ** 2 - (2 * N + 1) * H(1) + 2 * N


@pytest.mark.parametrize(
    "factors",
    [
        [(1,)],
        [(2,)],
        [(1, 2)],
        [(2, 1)],
        [(1,), (1,)],
        [(1,), (2,)],
        [(1, 1), (1, 1)],
        [(1,), (1,), (1, 1, 1)],
        [(2, 1), (1, 1)],
        [(1, 2), (2,)],
    ],
)
def test_sum_product_oracle(factors):
    closed = sum_product(factors)
    partials = brute_partial_sums([Composition(f) for f in factors], 30)
    for n in range(31):
        assert closed.eval(n) == partials[n]


def test_sum_product_oracle_random_inhomogeneous():
    rng = random.Random(20240817)
    for _ in range(10):
        total = rng.randint(2, 5)
        factors = []
        remaining = total
        while remaining:
            w = rng.randint(1, remaining)
            parts = []
            left = w
            while left:
                x = rng.randint(1, left)
                parts.append(x)
                left -= x
            factors.append(Composition(parts))
            remaining -= w
        closed = sum_product(factors)
        partials = brute_partial_sums(factors, 20)
        for n in range(21):
            assert closed.eval(n) == partials[n]


def test_sum_product_weight_bound():
    factors = [Composition((1, 2)), Composition((1, 1))]
    total = sum(f.weight for f in factors)
    for mono in sum_product(factors).terms():
        assert sum(c.weight for c in mono.factors) <= total


def test_rebase_examples():
    coeffs = rebase(2 * H(1, 1) + H(2), [H(1) ** 2, H(2)])
    assert [str(c) for c in coeffs] == ["1", "0"]

    zeros = rebase(MhsExpression.zero(), [H(1) ** 2, H(2)])
    assert all(c.is_zero() for c in zeros)

    with pytest.raises(RebaseError) as excinfo:
        rebase(H(3), [H(2)])
    assert expr_equal(excinfo.value.residual, H(3))


def test_rebase_polynomial_coefficients():
    target = (N + 1) * H(2) + N * N * H(1)
    coeffs = rebase(target, [H(1), H(2)])
    assert coeffs[0] == N * N
    assert coeffs[1] == N + 1


def test_partial_sum_oracle():
    record = known_identities()[4]
    assert partial_sum_oracle(record.factors, record.rhs, 25)
    assert not partial_sum_oracle(record.factors, record.rhs + H(3), 25)
    # an error that vanishes for n < 5 is caught at n = 5
    late = record.rhs + N * (N - 1) * (N - 2) * (N - 3) * (N - 4)
    assert partial_sum_oracle(record.factors, late, 4)
    assert not partial_sum_oracle(record.factors, late, 5)


def test_partial_sum_oracle_needs_a_point(monkeypatch):
    record = known_identities()[4]
    for nmax in (0, -1):
        with pytest.raises(ValueError, match="nmax >= 1"):
            partial_sum_oracle(record.factors, record.rhs + H(3), nmax)
    # The oracle evaluates on the integer scale, never through Fractions.
    monkeypatch.setattr(MhsExpression, "eval", None)
    assert partial_sum_oracle(record.factors, record.rhs, 1)
