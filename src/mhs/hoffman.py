"""Hoffman reduction: homogeneous sums H_n({1}^d) in terms of power sums.

With e_d = H_n({1}^d) playing the role of the d-th elementary symmetric
function in 1/1, ..., 1/n and p_m = H_n(m) the m-th power sum, Newton's
identity d * e_d = sum_{m=1}^d (-1)^(m-1) * p_m * e_{d-m}, solved for e_d,
gives the explicit formula

    d! * H_n({1}^d) = sum over partitions lam of d of
                      (-1)^(d - len(lam)) * (d! / z_lam) * prod_i H_n(lam_i),

with z_lam = prod_m m^(k_m) * k_m! when m occurs k_m times in lam: an
integer combination of products of depth-1 harmonic sums, one term per
partition of d.  Those terms are counted before any is built, and a d with
more than TERM_BUDGET of them (d >= 61) is refused with ValueError.
"""

from __future__ import annotations

from collections import Counter
from math import factorial

from .algebra import MhsExpression, _exact_quotient
from .partitions import partition_counts, partitions_of

__all__ = ["TERM_BUDGET", "hoffman_reduce", "partition_coefficients"]

# The most terms a reduction builds: p(60) = 966,467 fit, p(61) = 1,121,505 do not.
TERM_BUDGET = 10**6


def hoffman_reduce(d: int) -> MhsExpression:
    """d! * H_n({1}^d) as an integer combination of products of H_n(m)."""
    return MhsExpression(
        (tuple((m,) for m in lam), coeff) for lam, coeff in partition_coefficients(d).items()
    )


def partition_coefficients(d: int) -> dict[tuple[int, ...], int]:
    """Coefficient (-1)^(d - len(lam)) * d! / z_lam of prod H_n(lam_i) in hoffman_reduce(d).

    Keyed by every partition lam of d, as non-increasing tuples.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    count = partition_counts(d, TERM_BUDGET)[-1]
    if count > TERM_BUDGET:
        raise ValueError(
            f"reducing d={d} needs p({d}) >= {count:,} terms, one per partition of d, "
            f"over the budget of {TERM_BUDGET:,}"
        )
    total = factorial(d)
    out = {}
    for lam in partitions_of(d):
        z = 1
        for m, k in Counter(lam).items():
            z *= m**k * factorial(k)
        # z_lam is the order of a centralizer in S_d, so it divides d!.
        out[lam] = (-1) ** (d - len(lam)) * _exact_quotient(total, z)
    return out
