"""Closed forms for sums of products of multiple harmonic sums.

The engine turns sum over k = 1..n of a product of H_k(s) factors into an
expression in harmonic sums at n, in three steps: expand the product by the
stuffle relations, telescope each single sum with the rule

    sum_{k=1}^n H_k(s) = (n+1) H_n(s) - sum_{j=1}^n H_{j-1}(s') / j^{sd - 1}

(where s = (s', sd)), and optionally rewrite the result over a supplied basis
with polynomial coefficients (:func:`rebase`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

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

_ONE = NPolynomial.one()
_N_PLUS_1 = N + 1


def _telescoped(s: Composition) -> Iterator[tuple[tuple, NPolynomial]]:
    """Canonical (key, coeff) pieces of sum_{k=1}^n H_k(s), in harmonic sums at n.

    Every symbol in the output has weight at most |s|.  The trailing-exponent
    rule leaves a correction sum_{j<=n} H_{j-1}(s') / j^{sd-1}: for sd > 1 that
    is H_n(s', sd - 1); for sd = 1 it is sum_{k=0}^{n-1} H_k(s'), which is the
    sum for s' less H_n(s') (plus 1 when s' is empty).  So each trailing 1
    gives S(t, 1) = (n+1) H_n(t, 1) + H_n(t) - S(t), the H_n(t) - 1 = 0 of an
    empty t dropped, and the chain is unrolled into one alternating sum.
    """
    base = len(s)
    while base and s[base - 1] == 1:
        base -= 1
    sign = (-1) ** (len(s) - base)
    if base:  # s[:base] ends in an exponent > 1: no correction sum
        yield (Composition(s[:base]),), sign * _N_PLUS_1
        yield (Composition(s[: base - 1] + (s[base - 1] - 1,)),), -sign * _ONE
    else:
        yield (), sign * N  # sum of 1 over k = 1..n
    for cut in range(base + 1, len(s) + 1):
        sign = -sign
        yield (Composition(s[:cut]),), sign * _N_PLUS_1
        if cut > 1:
            yield (Composition(s[: cut - 1]),), sign * _ONE


def sum_single(s: Composition) -> MhsExpression:
    """Closed form of sum_{k=1}^n H_k(s), in harmonic sums at n (see _telescoped)."""
    return MhsExpression._from_canonical(_telescoped(Composition(s)))


def sum_product(factors: Iterable) -> MhsExpression:
    """Closed form of sum_{k=1}^n of the product of H_k(s) over ``factors``.

    Linearizes the product by stuffle and telescopes each composition of the
    expansion, scaled by its multiplicity, into one dict; the empty product
    telescopes to n.  The result is the canonical linear form; rebase it for
    a product-shaped presentation.
    """
    expansion = _linearize_factors(_canonical_factors(factors))
    return MhsExpression._from_canonical(
        (key, coeff * mult)
        for comp, mult in expansion.items()
        for key, coeff in _telescoped(Composition(comp))
    )


def partial_sum_oracle(factors: Iterable, closed: MhsExpression, nmax: int) -> bool:
    """Whether ``closed`` at n equals sum_{k=1}^n prod_j H_k(factors_j), n = 1..nmax.

    The brute-force check behind every derived closed form.  The closed form
    and the product are evaluated together on one exact integer scale by
    :func:`algebra._scaled_values`, which steps each H_n(s) by its
    recurrence and never calls the summation engine; the product's values
    are summed from n = 1.  Raises ValueError for nmax < 1, which would
    check nothing.
    """
    if nmax < 1:
        raise ValueError(f"the oracle needs nmax >= 1, got {nmax}")
    values = _scaled_values([closed, MhsExpression.monomial(1, factors)], nmax)
    next(values)  # n = 0: the empty sum is not checked
    partial = 0
    for value, term in values:
        partial += term
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
