"""Closed forms for sums of products of multiple harmonic sums.

The engine turns sum over k = 1..n of a product of H_k(s) factors into an
expression in harmonic sums at n, in three steps: expand the product by the
stuffle relations, telescope each single sum with the rule

    sum_{k=1}^n H_k(s) = (n+1) H_n(s) - sum_{j=1}^n H_{j-1}(s') / j^{sd - 1}

(where s = (s', sd)), and optionally rewrite the result over a supplied basis
with polynomial coefficients (:func:`rebase`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

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


def _linear_coefficients(e: MhsExpression) -> dict[Composition, NPolynomial]:
    linear = e.linearize()._terms
    return {key[0] if key else Composition(): coeff for key, coeff in linear.items()}


def _solve_exact(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction], bool, int]:
    """Gauss-Jordan over Fractions.

    Returns (particular solution with free variables set to 0, consistency
    flag, rank).  On an inconsistent system the solution still satisfies every
    pivoted row, which yields a meaningful residual.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
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


def rebase(
    e: MhsExpression,
    basis: Sequence[MhsExpression],
    max_degree: int | None = None,
    require_unique: bool = False,
) -> list[NPolynomial]:
    """Write e as sum of q_i * basis_i with polynomial q_i, or fail.

    Coefficient degrees are bounded by ``max_degree`` (default: a generous
    bound from the inputs).  Raises :class:`RebaseError` carrying the residual
    when e is not in the span.  The returned combination is re-checked with
    :func:`expr_equal`.
    """
    from .algebra import expr_equal  # local import to keep module load light

    target = _linear_coefficients(e)
    basis_coeffs = [_linear_coefficients(b) for b in basis]
    basis_deg = max((p.degree for bc in basis_coeffs for p in bc.values()), default=0)
    target_deg = max((p.degree for p in target.values()), default=0)
    if max_degree is None:
        max_degree = max(target_deg + basis_deg + 1, 1)

    symbols = sorted(
        set(target) | {s for bc in basis_coeffs for s in bc},
        key=Composition.sort_key,
    )
    max_power = max(max_degree + basis_deg, target_deg)

    if not symbols:  # zero target over an all-zero basis
        return [NPolynomial.zero()] * len(basis)

    # Unknown x[(i, t)] is the coefficient of n^t in q_i; one equation per
    # (symbol, power of n) pair.
    unknowns = [(i, t) for i in range(len(basis)) for t in range(max_degree + 1)]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for symbol in symbols:
        goal = target.get(symbol, NPolynomial.zero())
        for power in range(max_power + 1):
            row = []
            for i, t in unknowns:
                poly = basis_coeffs[i].get(symbol, NPolynomial.zero())
                row.append(poly.coeff(power - t))
            rows.append(row)
            rhs.append(goal.coeff(power))

    solution, consistent, rank = _solve_exact(rows, rhs)
    coeffs = [
        NPolynomial(tuple(solution[i * (max_degree + 1) + t] for t in range(max_degree + 1)))
        for i in range(len(basis))
    ]
    combination = _combine(zip(coeffs, basis))
    if not consistent:
        residual = (e - combination).linearize()
        raise RebaseError(
            f"expression is not in the span of the basis; residual {residual}",
            residual,
        )
    if require_unique and rank < len(unknowns):
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


@dataclass(frozen=True)
class IdentityRecord:
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
