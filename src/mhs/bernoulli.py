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

from .residues import NonPIntegralError, require_admissible

__all__ = ["bernoulli", "bernoulli_invariant", "bernoulli_invariant_mod"]

_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_lock = threading.Lock()


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
    if m >= len(_cache):
        with _lock:
            start = len(_cache)
            if m >= start:
                top = max(m, 2 * start)  # ascending calls then cost O(the last one)
                t = _tangent_numbers(top // 2)
                fresh = []
                for k in range(start, top + 1):
                    if k % 2:
                        fresh.append(Fraction(0))
                        continue
                    n = k // 2
                    sign = 1 if n % 2 else -1
                    fresh.append(Fraction(sign * k * t[n], 4**n * (4**n - 1)))
                _cache.extend(fresh)
    return _cache[m]


def bernoulli_invariant(p: int) -> Fraction:
    """The constant B(p-3)/(p-3) - B(2p-4)/(4p-8) attached to a prime p > 5.

    Both indices avoid multiples of p - 1, so by von Staudt-Clausen the value
    is p-integral; that is checked at runtime rather than assumed.
    """
    require_admissible(p)
    value = bernoulli(p - 3) / (p - 3) - bernoulli(2 * p - 4) / (4 * p - 8)
    if value.denominator % p == 0:
        raise NonPIntegralError(f"invariant unexpectedly non-p-integral at {p}")
    return value


def _power_sum_mod(m: int, p: int, mod: int) -> int:
    """sum_{j=1}^{p-1} j^m modulo ``mod``."""
    return sum(pow(j, m, mod) for j in range(1, p)) % mod


def _bernoulli_mod_p2(m: int, p: int) -> int:
    """B_m modulo p^2 as (sum_{j<p} j^m mod p^3) / p; see bernoulli_invariant_mod."""
    power_sum = _power_sum_mod(m, p, p**3)
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
    require_admissible(p)
    mod = p**2
    low = _bernoulli_mod_p2(p - 3, p) * pow(p - 3, -1, mod)
    high = _bernoulli_mod_p2(2 * p - 4, p) * pow(4 * p - 8, -1, mod)
    return (low - high) % mod
