"""Residues modulo a prime power, batch inversion of units, and small primality helpers."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable

__all__ = [
    "NonPIntegralError",
    "PResidue",
    "batch_inverse",
    "is_prime",
    "padic_valuation",
    "primes_in_range",
    "reduce_mod",
    "require_admissible",
    "require_exponent",
    "require_prime",
]


class NonPIntegralError(ArithmeticError):
    """The denominator shares a factor with p; the value has no residue."""


def is_prime(n: int) -> bool:
    if n < 2 or n % 2 == 0:
        return n == 2
    return all(n % f for f in range(3, isqrt(n) + 1, 2))


def require_admissible(p: int) -> None:
    """Raise ValueError unless p is a prime > 5, the primes every claim covers."""
    if p <= 5 or not is_prime(p):
        raise ValueError(f"p must be a prime > 5, got {p}")


def require_prime(p: int) -> None:
    """Raise ValueError unless p is a prime, the primes of the rings Z / p^e."""
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")


def require_exponent(e: int) -> None:
    """Raise ValueError unless e >= 1, the exponents of the rings Z / p^e."""
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")


def batch_inverse(values: Iterable[int], mod: int) -> list[int]:
    """The inverses of ``values`` modulo ``mod``, with one modular inversion.

    Montgomery's trick: invert the product of all values once, then peel the
    factors off walking back, three multiplications per value.  Raises
    ValueError, as ``pow(v, -1, mod)`` does, when some value is not a unit.
    """
    values = list(values)
    prefix = []
    product = 1
    for v in values:
        prefix.append(product)
        product = product * v % mod
    inverse = pow(product, -1, mod)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inverse * prefix[i] % mod
        inverse = inverse * values[i] % mod
    return out


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi."""
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


def padic_valuation(q: Fraction | int, p: int) -> int | None:
    """v_p(q); None stands for +infinity (q == 0).  A p below 2 raises ValueError."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    q = Fraction(q)
    if q == 0:
        return None

    def v(m: int) -> int:
        count = 0
        while m % p == 0:
            m //= p
            count += 1
        return count

    return v(q.numerator) - v(q.denominator)


class PResidue:
    """Element of Z / p^e, reduced when built: the value that a residue function returns.

    Equal only to a PResidue with the same (value, p, e), and hashable.
    """

    __slots__ = ("value", "p", "e")

    def __init__(self, value: int, p: int, e: int):
        self.value, self.p, self.e = value % p**e, p, e

    def __eq__(self, other):
        if other.__class__ is not PResidue:
            return NotImplemented
        return (self.value, self.p, self.e) == (other.value, other.p, other.e)

    def __hash__(self) -> int:
        return hash((self.value, self.p, self.e))

    def __repr__(self) -> str:
        return f"PResidue({self.value} mod {self.p}^{self.e})"


def reduce_mod(q: Fraction | int, p: int, e: int) -> PResidue:
    """Map a p-integral rational into Z / p^e; p must be a prime and e >= 1."""
    require_exponent(e)
    require_prime(p)
    q = Fraction(q)
    mod = p**e
    if q.denominator % p == 0:
        raise NonPIntegralError(f"{q} is not p-integral for p={p}")
    value = q.numerator * pow(q.denominator, -1, mod) % mod
    return PResidue(value, p, e)
