import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhs.algebra import H, MhsExpression, N, NPolynomial, _combine, expr_equal
from mhs.cli import main
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


def test_rebase_require_unique():
    # A repeated basis entry makes the system underdetermined at any degree.
    basis = [H(1), H(2), H(1)]
    target = (N + 1) * H(1) + H(2)
    with pytest.raises(RebaseError, match="multiple representations"):
        rebase(target, basis, max_degree=1, require_unique=True)
    # Without the flag the first entry takes the weight, the copy gets 0.
    assert rebase(target, basis, max_degree=1) == [N + 1, NPolynomial.one(), NPolynomial.zero()]


def test_rebase_max_degree():
    with pytest.raises(RebaseError):
        rebase(N * N * H(1), [H(1)], max_degree=1)
    assert rebase(N * N * H(1), [H(1)], max_degree=2) == [N * N]


# -- rebase against the dense solver it replaced -------------------------------


def _solve_exact(rows, rhs):
    """Gauss-Jordan over Fractions: (solution with free unknowns at 0, consistent, rank)."""
    ncols = len(rows[0]) if rows else 0
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        scale = aug[r][c]
        aug[r] = [x / scale for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == len(aug):
            break
    consistent = all(aug[i][ncols] == 0 for i in range(r, len(aug)))
    solution = [Fraction(0)] * ncols
    for pr, pc in pivots:
        solution[pc] = aug[pr][ncols]
    return solution, consistent, len(pivots)


def dense_rebase(e, basis, max_degree=None):
    """The former rebase: one dense (symbol, power) x (basis, degree) matrix.

    Returns (coefficients, consistent); on an inconsistent system the
    coefficients are whatever the pivoted rows give.
    """

    def linear(x):
        return {key[0] if key else Composition(): p for key, p in x.linearize()._terms.items()}

    target = linear(e)
    basis_coeffs = [linear(b) for b in basis]
    basis_deg = max((p.degree for bc in basis_coeffs for p in bc.values()), default=0)
    target_deg = max((p.degree for p in target.values()), default=0)
    if max_degree is None:
        max_degree = max(target_deg + basis_deg + 1, 1)
    symbols = set(target) | {s for bc in basis_coeffs for s in bc}
    if not symbols:  # zero target over an all-zero basis
        return [NPolynomial.zero()] * len(basis), True
    max_power = max(max_degree + basis_deg, target_deg)
    unknowns = [(i, t) for i in range(len(basis)) for t in range(max_degree + 1)]
    rows, rhs = [], []
    for symbol in sorted(symbols, key=Composition.sort_key):
        goal = target.get(symbol, NPolynomial.zero())
        for power in range(max_power + 1):
            rows.append(
                [basis_coeffs[i].get(symbol, NPolynomial.zero()).coeff(power - t) for i, t in unknowns]
            )
            rhs.append(goal.coeff(power))
    solution, consistent, _ = _solve_exact(rows, rhs)
    coeffs = [
        NPolynomial(solution[i * (max_degree + 1) + t] for t in range(max_degree + 1))
        for i in range(len(basis))
    ]
    return coeffs, consistent


# Small pools, so that random bases are often dependent and targets often
# fall just outside their span.
fractions = st.fractions(min_value=-2, max_value=2, max_denominator=3)
polynomials = st.lists(fractions, max_size=3).map(NPolynomial)
factor_lists = st.lists(st.lists(st.integers(1, 2), min_size=1, max_size=2), max_size=2)
expressions = st.lists(st.tuples(factor_lists, polynomials), max_size=3).map(MhsExpression)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(expressions, min_size=1, max_size=3),
    st.lists(st.lists(fractions, max_size=2).map(NPolynomial), min_size=3, max_size=3),
    st.one_of(st.just(MhsExpression.zero()), expressions),
    st.sampled_from([None, 1, 2]),
)
def test_rebase_matches_the_dense_solver(basis, weights, noise, max_degree):
    e = _combine(zip(weights, basis)) + noise
    coeffs, consistent = dense_rebase(e, basis, max_degree)
    if consistent:
        assert rebase(e, basis, max_degree) == coeffs
        return
    with pytest.raises(RebaseError) as excinfo:
        rebase(e, basis, max_degree)
    residual = excinfo.value.residual
    assert not residual.is_zero()
    assert residual.max_coeff_degree() <= e.linearize().max_coeff_degree()
    rebase(e - residual, basis, max_degree)


FOUND_BASIS = [(2 * N + 1) * H(1), MhsExpression.constant(1)]


def test_rebase_residual_keeps_the_target_degree():
    # The dense solver reported 8*n^4*H(1) here, for a target of degree 1.
    target = sum_product([(1,)])  # (n + 1)*H(1) - n
    with pytest.raises(RebaseError) as excinfo:
        rebase(target, FOUND_BASIS)
    residual = excinfo.value.residual
    assert residual.max_coeff_degree() <= 1
    rebase(target - residual, FOUND_BASIS)


def test_cli_rebase_residual_keeps_the_target_degree(capsys, tmp_path):
    basis_file = tmp_path / "basis.json"
    basis_file.write_text(json.dumps([b.to_json() for b in FOUND_BASIS]))
    assert main(["derive", "1", "--basis", str(basis_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rebase failed: residual ")
    assert "H(1)" in err and "n^" not in err
