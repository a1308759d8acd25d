"""Bernoulli numbers and the derived per-prime invariant, exact and mod p^2.

Exact Bernoulli numbers come from the tangent numbers T_n by Brent and
Harvey's integer-only algorithm (*Fast computation of Bernoulli, tangent and
secant numbers*, arXiv:1108.0286):

    B_2n = (-1)^(n-1) * 2n * T_n / (2^(2n) * (2^(2n) - 1)),

with B_0 = 1, B_1 = -1/2 and every other odd index zero.  Only even indices
>= 4 are consumed downstream, so the B_1 sign convention never matters.

The exact route is the oracle.  Per-prime checks only need the invariant X
modulo p^2, which :func:`bernoulli_invariant_mod` reads off power sums.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import isqrt

__all__ = ["bernoulli", "bernoulli_invariant", "bernoulli_invariant_mod"]

# ``import mhs`` loads this module, so mhs.residues is imported inside the
# functions that use it, not here.

# [B_0, B_1, ...] in one unlocked table per thread, grown geometrically.
_local = threading.local()


def _tangent_numbers(n: int) -> list[int]:
    """[0, T_1, ..., T_n] for n >= 1: O(n^2) small multiples and additions."""
    t = [0] * (n + 1)
    t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def bernoulli(m: int) -> Fraction:
    """The m-th Bernoulli number, exact and cached."""
    if m < 0:
        raise ValueError("m must be >= 0")
    table = getattr(_local, "table", None)
    if table is None:
        table = _local.table = [Fraction(1), Fraction(-1, 2)]
    start = len(table)
    if m >= start:
        top = max(m, 2 * start)  # ascending calls then cost O(the last one)
        t = _tangent_numbers(top // 2)
        for k in range(start, top + 1):
            if k % 2:
                table.append(Fraction(0))
                continue
            n = k // 2
            sign = 1 if n % 2 else -1
            table.append(Fraction(sign * k * t[n], 4**n * (4**n - 1)))
    return table[m]


def bernoulli_invariant(p: int) -> Fraction:
    """The constant B(p-3)/(p-3) - B(2p-4)/(4p-8) attached to a prime p > 5.

    Both indices avoid multiples of p - 1, so by von Staudt-Clausen the value
    is p-integral; that is checked at runtime rather than assumed.
    """
    from .residues import NonPIntegralError, require_admissible

    require_admissible(p)
    value = bernoulli(p - 3) / (p - 3) - bernoulli(2 * p - 4) / (4 * p - 8)
    if value.denominator % p == 0:
        raise NonPIntegralError(f"invariant unexpectedly non-p-integral at {p}")
    return value


def _power_sums_mod(p: int, mod: int) -> tuple[int, int]:
    """(sum_{j<p} j^(p-3), sum_{j<p} j^(2p-4)) modulo ``mod``, one pow per prime j.

    j -> j^(p-3) is completely multiplicative, so a composite j = q * (j/q),
    q a prime factor of j from a sieve, costs one product of two earlier
    powers.  The cofactor j/q is below p/2, so only those powers are kept.
    j^(2p-4) = (j^(p-3) * j)^2, so the second sum reuses the first's powers.
    """
    factor = [0] * p  # a prime factor of each composite j < p, 0 for the rest
    for q in range(2, isqrt(p - 1) + 1):
        if not factor[q]:
            factor[q * q :: q] = [q] * len(range(q * q, p, q))
    half = (p + 1) // 2
    powers = [0, 1] + [0] * (half - 2)  # j^(p-3) for j < half
    low = high = 1
    for j in range(2, p):
        q = factor[j]
        power = pow(j, p - 3, mod) if not q else powers[q] * powers[j // q] % mod
        if j < half:
            powers[j] = power
        low += power
        high += (power * j) ** 2
    return low % mod, high % mod


def _bernoulli_mod_p2(m: int, p: int, power_sum: int) -> int:
    """B_m modulo p^2 as (sum_{j<p} j^m mod p^3) / p; see bernoulli_invariant_mod."""
    from .residues import NonPIntegralError

    if power_sum % p:
        raise NonPIntegralError(f"power sum of exponent {m} is not 0 mod p={p}")
    return power_sum // p


def bernoulli_invariant_mod(p: int) -> int:
    """bernoulli_invariant(p) modulo p^2, without any exact Bernoulli number.

    For m in {p-3, 2p-4}, Faulhaber's formula gives
    p * B_m = sum_{j<p} j^m (mod p^3): B_{m-1} = 0, and the next term,
    m(m-1)/6 * B_{m-2} * p^3, is p-integral because p - 1 does not divide
    m - 2 for p > 5.  So B_m mod p^2 is that power sum divided by p.  The
    checks at p read it once, from congruences.prime_context(p).
    """
    from .residues import require_admissible

    require_admissible(p)
    mod = p**2
    low_sum, high_sum = _power_sums_mod(p, p**3)
    low = _bernoulli_mod_p2(p - 3, p, low_sum) * pow(p - 3, -1, mod)
    high = _bernoulli_mod_p2(2 * p - 4, p, high_sum) * pow(4 * p - 8, -1, mod)
    return (low - high) % mod
