"""Exact Bernoulli numbers and the derived per-prime invariant.

Bernoulli numbers follow the convolution recurrence
sum_{j=0}^{m} C(m+1, j) B_j = 0 with B_0 = 1, which gives B_1 = -1/2.  Only
even indices >= 4 are consumed downstream, so the B_1 sign convention never
matters.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb

from .residues import NonPIntegralError, require_admissible

__all__ = ["bernoulli", "bernoulli_invariant"]

_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_lock = threading.Lock()


def bernoulli(m: int) -> Fraction:
    """The m-th Bernoulli number, exact and cached."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m >= len(_cache):
        with _lock:
            while len(_cache) <= m:
                k = len(_cache)
                if k % 2 == 1:
                    _cache.append(Fraction(0))
                    continue
                total = Fraction(0)
                for j in range(k):
                    if _cache[j]:
                        total += comb(k + 1, j) * _cache[j]
                _cache.append(-total / (k + 1))
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
