"""Hoffman reduction: homogeneous sums H_n({1}^d) in terms of power sums.

With e_d = H_n({1}^d) playing the role of the d-th elementary symmetric
function in 1/1, ..., 1/n and p_m = H_n(m) the m-th power sum, Newton's
identity

    d * e_d = sum_{m=1}^d (-1)^(m-1) * p_m * e_{d-m}

expresses d! * H_n({1}^d) as an integer combination of products of depth-1
harmonic sums, one term per partition of d.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .algebra import H, MhsExpression, _combine
from .partitions import partitions_of

__all__ = ["hoffman_reduce", "partition_coefficients"]


# Unbounded but safe: d + 1 entries, each one the recurrence reads again.
@cache
def _elementary(d: int) -> MhsExpression:
    if d == 0:
        return MhsExpression.constant(1)
    return _combine(
        (None, Fraction((-1) ** (m - 1), d) * H(m) * _elementary(d - m))
        for m in range(1, d + 1)
    )


def hoffman_reduce(d: int) -> MhsExpression:
    """d! * H_n({1}^d) as an integer combination of products of H_n(m)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    result = factorial(d) * _elementary(d)
    for mono in result.terms():
        coeff = mono.coeff
        # The recurrence runs over rationals; the end result must be integral.
        if coeff.degree > 0 or coeff.coeff(0).denominator != 1:
            raise ArithmeticError(f"non-integer coefficient {coeff} in reduction of d={d}")
    return result


def partition_coefficients(d: int) -> dict[tuple[int, ...], int]:
    """Coefficient of prod H_n(lam_i) in hoffman_reduce(d), keyed by partition.

    Every partition of d appears as a key (with 0 if absent); keys are
    non-increasing tuples.
    """
    reduction = hoffman_reduce(d)
    out = {lam: 0 for lam in partitions_of(d)}
    for mono in reduction.terms():
        lam = tuple(sorted((c.weight for c in mono.factors), reverse=True))
        out[lam] = int(mono.coeff.coeff(0))
    return out
