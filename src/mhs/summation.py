"""Closed forms for sums of products of multiple harmonic sums.

The engine turns sum over k = 1..n of a product of H_k(s) factors into an
expression in harmonic sums at n, in three steps: expand the product by the
stuffle relations, telescope each single sum with the rule

    sum_{k=1}^n H_k(s) = (n+1) H_n(s) - sum_{j=1}^n H_{j-1}(s') / j^{sd - 1}

(where s = (s', sd)), and optionally rewrite the result over a supplied basis
with polynomial coefficients (:func:`rebase`).  The telescoping kernel sums
integer pairs (c0, c1), for c0 + c1 n, and builds NPolynomials only at the end.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .algebra import H, MhsExpression, N, NPolynomial, _combine
from .algebra import _canonical_factors, _linearize_factors, _scaled_values
from .core import Composition

__all__ = [
    "IdentityRecord",
    "RebaseError",
    "known_identities",
    "partial_sum_oracle",
    "rebase",
    "sum_product",
    "sum_single",
]


def _telescope(expansion: dict) -> MhsExpression:
    """Closed form of sum_{k=1}^n sum_s mult * H_k(s) over ``expansion`` {s: mult}.

    For sd = 1 the rule's correction is sum_{k<n} H_k(s') = S(s') - H_n(s'),
    plus 1 if s' is empty, so for s = (u, 1^r), u empty or ending in u_d > 1,

        S(s) = (n+1) H_n(s) + sum_{i<r} (-1)^(r-i) n H_n(u, 1^i) - (-1)^r H_n(u', u_d - 1),

    the last term only for a nonempty u; S(()) = n.  Each c0 + c1 n sums as a pair of ints.
    """
    acc: dict[tuple, list] = {}
    for s, mult in expansion.items():
        depth = base = len(s)
        while base and s[base - 1] == 1:
            base -= 1
        sign = mult if (depth - base) % 2 == 0 else -mult  # the sign of n H_n(u)
        for cut in range(base, depth + 1):
            pair = acc.setdefault(s[:cut], [0, 0])
            pair[1] += sign
            if cut == base and base:
                acc.setdefault(s[: base - 1] + (s[base - 1] - 1,), [0, 0])[0] -= sign
            sign = -sign
        if depth:
            pair[0] += mult  # the last pair is s's own: (n + 1) H_n(s)
    pairs = {s: tuple(pair) for s, pair in acc.items() if any(pair)}
    polys = {pair: NPolynomial(pair) for pair in set(pairs.values())}
    # Each s is a slice of a valid composition, or one with a part > 1 lowered.
    expr = object.__new__(MhsExpression)  # distinct keys, no zero pair: nothing to merge
    expr._terms = {
        (tuple.__new__(Composition, s),) if s else (): polys[pair] for s, pair in pairs.items()
    }
    return expr


def sum_single(s: Composition) -> MhsExpression:
    """Closed form of sum_{k=1}^n H_k(s), in harmonic sums at n (see _telescope)."""
    return _telescope({Composition(s): 1})


def sum_product(factors: Iterable) -> MhsExpression:
    """Closed form of sum_{k=1}^n of the product of H_k(s) over ``factors``.

    Linearizes the product by stuffle and telescopes each composition of the
    expansion, scaled by its multiplicity, into one dict of integer pairs;
    the empty product telescopes to n.  The result is the canonical linear
    form; rebase it for a product-shaped presentation.
    """
    return _telescope(_linearize_factors(_canonical_factors(factors)))


def partial_sum_oracle(factors: Iterable, closed: MhsExpression, nmax: int) -> bool:
    """Whether ``closed`` at n equals sum_{k=1}^n prod_j H_k(factors_j), n = 1..nmax.

    The brute-force check behind every derived closed form.  The closed form
    and the product are evaluated together on the exact integer scale D_n of
    :func:`algebra._scaled_values`, which steps each H_n(s) by its
    recurrence and never calls the summation engine.  The product's values
    are summed from n = 1 on the same running scale: the sum so far is
    multiplied by the growth D_n / D_(n-1) before the term at n is added.
    Raises ValueError for nmax < 1, which would check nothing.
    """
    if nmax < 1:
        raise ValueError(f"the oracle needs nmax >= 1, got {nmax}")
    values = _scaled_values([closed, MhsExpression.monomial(1, factors)], nmax)
    next(values)  # n = 0: the empty sum is not checked
    partial = 0
    for growth, (value, term) in values:
        partial = partial * growth + term
        if value != partial:
            return False
    return True


class RebaseError(ValueError):
    """Expression is not in the span of the requested basis."""

    def __init__(self, message: str, residual: MhsExpression):
        super().__init__(message)
        self.residual = residual


def _vector(e: MhsExpression) -> dict:
    """The linear form of e as {(power of n, symbol): coefficient}."""
    return {
        (power, key): c
        for key, poly in e.linearize()._terms.items()
        for power, c in enumerate(poly.coeffs)
        if c
    }


def _reduce(vector: dict, weights: dict, echelon: dict) -> None:
    """Subtract echelon rows from ``vector`` in place, highest pivot first.

    A row is (vector, weights), scaled to 1 at its pivot, its highest
    coordinate, so in descending pivot order no pivot comes back and the
    highest coordinate of ``vector`` never rises.  ``weights``, the
    coefficients of the unknowns in ``vector``, takes the same steps.
    """
    for pivot in sorted(echelon, reverse=True):
        c = vector.get(pivot)
        if not c:
            continue
        row, row_weights = echelon[pivot]
        for key, x in row.items():
            left = vector.get(key, 0) - c * x
            if left:
                vector[key] = left
            else:
                del vector[key]
        for key, w in row_weights.items():
            weights[key] = weights.get(key, 0) - c * w


def rebase(
    e: MhsExpression,
    basis: Sequence[MhsExpression],
    max_degree: int | None = None,
    require_unique: bool = False,
) -> list[NPolynomial]:
    """Write e as sum of q_i * basis_i with polynomial q_i, or fail.

    Coefficient degrees are bounded by ``max_degree`` (default: a generous
    bound from the inputs).  One sparse elimination over (power of n, symbol)
    coordinates: each unknown n^t * basis_i, in order of i then t, is reduced
    by the rows kept so far and kept if anything is left; then e is reduced
    by the same rows.  If nothing of e is left, the weights taken are the
    solution, with every dependent unknown at 0.  Otherwise
    :class:`RebaseError` carries what is left as the residual, whose degree
    in n never exceeds that of e.  With ``require_unique`` a dependent
    unknown is an error too.  The returned combination is re-checked with
    :func:`expr_equal`.
    """
    # Looked up at call time, so that a patched algebra.expr_equal is the one
    # that re-checks (the python -O guard test relies on this).
    from .algebra import expr_equal

    target = _vector(e)
    basis_vectors = [_vector(b) for b in basis]
    if max_degree is None:
        top = [max((power for power, _ in v), default=0) for v in [target, *basis_vectors]]
        max_degree = max(top[0] + max(top[1:], default=0) + 1, 1)

    unknowns = [(i, t) for i in range(len(basis)) for t in range(max_degree + 1)]
    echelon: dict[tuple, tuple[dict, dict]] = {}
    for i, t in unknowns:
        vector = {(power + t, key): c for (power, key), c in basis_vectors[i].items()}
        weights = {(i, t): 1}
        _reduce(vector, weights, echelon)
        if vector:
            pivot = max(vector)
            scale = vector[pivot]
            echelon[pivot] = (
                {key: x / scale for key, x in vector.items()},
                {key: w / scale for key, w in weights.items()},
            )
    weights = {}
    _reduce(target, weights, echelon)  # now e + sum of weights * unknowns
    coeffs = [
        NPolynomial(-weights.get((i, t), 0) for t in range(max_degree + 1))
        for i in range(len(basis))
    ]
    combination = _combine(zip(coeffs, basis))
    if target:
        residual = (e - combination).linearize()
        raise RebaseError(
            f"expression is not in the span of the basis; residual {residual}",
            residual,
        )
    if require_unique and len(echelon) < len(unknowns):
        raise RebaseError(
            "basis admits multiple representations (underdetermined system)",
            MhsExpression.zero(),
        )
    if not expr_equal(e, combination):
        raise RebaseError(
            "solved combination fails the equality re-check",
            (e - combination).linearize(),
        )
    return coeffs


class IdentityRecord(NamedTuple):
    """A product of compositions under the sum, and its known closed form."""

    name: str
    factors: tuple[Composition, ...]
    rhs: MhsExpression


def known_identities() -> list[IdentityRecord]:
    """The classical closed forms for total weight up to 3, as golden data."""
    half = Fraction(1, 2)
    curvature = H(1) - half * H(1) ** 2
    c = Composition
    return [
        IdentityRecord(
            "S:1",
            (c((1,)),),
            (N + 1) * H(1) - N,
        ),
        IdentityRecord(
            "S:2",
            (c((1, 1)),),
            (N + 1) * H(1, 1) - N * H(1) + N,
        ),
        IdentityRecord(
            "S:1,1",
            (c((1,)), c((1,))),
            (N + 1) * H(1) ** 2 - (2 * N + 1) * H(1) + 2 * N,
        ),
        IdentityRecord(
            "S:3",
            (c((1, 1, 1)),),
            (N + 1) * H(1, 1, 1) + N * curvature + (N * half) * H(2) - N,
        ),
        IdentityRecord(
            "S:2,1",
            (c((1,)), c((1, 1))),
            (N + 1) * H(1) * H(1, 1)
            + (3 * N + 1) * curvature
            + ((N + 1) * half) * H(2)
            - 3 * N,
        ),
        IdentityRecord(
            "S:1,1,1",
            (c((1,)), c((1,)), c((1,))),
            (N + 1) * H(1) ** 3 + (6 * N + 3) * curvature + half * H(2) - 6 * N,
        ),
    ]
