"""Sums of powers of signed binomial coefficients modulo prime powers.

For a prime p > 5 and any integer a, the sum over k of
(-1)^(ak) * C(p-1, k)^a satisfies, modulo p^6,

    sum = (a-1)p / (ap-1) * (1 + a(a+1)(3a-2)/6 * p^3 * X)

with X = bernoulli_invariant(p), which enters only modulo p^2.  Two wholly
independent evaluations of the left side are provided: the direct one powers
up the product formula (-1)^k C(p-1,k) = prod_{j<=k} (1 - p/j), while the
expansion route rewrites that product in homogeneous harmonic sums and sums
over partitions.  Their agreement re-verifies the congruence tables along the
way.  Both read their residues at p from the context that holds p
(congruences.prime_context), which holds X mod p^2 and each sum; in a
sweep it holds a chunk of primes and forms each sum for all of them in one
pass.  Each route has six moments c_r = sum_k (u_k - 1)^r, the direct one
over the units k <= (p-1)/2 (u_(p-1-k) = u_k), the expansion one from the
product sums, and sums a row C(a, 0..5) with them (:func:`moment_sum`).  Each
per-prime claim is built with its a's row and reads the context directly;
the public functions form the row and check p, and return a PResidue.

Also covered: Staver's finite identity for sum (1/k) C(2k,k), Wolstenholme's
congruence, the central-binomial consequence modulo p^4, and the classical
C(ap-2, p-1) congruence modulo p^4.  At p, with F_c = prod_{m<p} (1 + cp/m),
C(2p-1, p-1) = F_1 and C(ap-2, p-1) = (a-1)p F_(a-1) / (ap-1); the context
of p forms F_1 and F_2 from the rows H({1}^j) that the congruence claims
also read, so no per-prime check calls ``math.comb``; the exact functions
still do.  The Staver claims compare integers over L_n = lcm(1..n),
carrying the left side from n to n + 1; ``staver_identity_holds`` keeps the
Fraction route as their oracle.
"""

from __future__ import annotations

import operator
import threading
from fractions import Fraction
from functools import partial
from math import comb, gcd
from typing import Callable, NamedTuple

from .algebra import _exact_quotient
from .bernoulli import bernoulli_invariant
from .congruences import prime_context
from .partitions import generalized_binomial
from .report import CheckResult, check_at, check_residues
from .residues import PResidue, is_prime, padic_valuation, require_admissible, require_exponent

__all__ = [
    "alternating_power_sum",
    "binomial_power_sum",
    "binomial_power_sum_closed_form",
    "binomial_power_sum_via_mhs",
    "cai_granville_holds",
    "central_binomial_sum_check",
    "central_binomial_sum_exact",
    "central_binomial_sum_mod",
    "generalized_binomial",
    "signed_binomial_power",
    "staver_identity_holds",
    "wolstenholme_holds",
]


def signed_binomial_power(k: int, a: int, p: int, e: int = 6) -> PResidue:
    """((-1)^k C(p-1, k))^a in Z / p^e, as prod_{j<=h} (j - p) / j for h = min(k, p-1-k).

    u_(p-1-k) = u_k, so the product runs over the shorter half.  The base
    is 1 mod p, hence a unit, so negative a inverts cleanly.
    """
    require_admissible(p)
    require_exponent(e)
    if not 0 <= k <= p - 1:
        raise ValueError("k must lie in [0, p-1]")
    mod = p**e
    top = bottom = 1
    for j in range(1, min(k, p - 1 - k) + 1):
        top = top * (j - p) % mod
        bottom = bottom * j % mod
    if a < 0:
        top, bottom = bottom, top
    return PResidue(pow(top * pow(bottom, -1, mod), abs(a), mod), p, e)


def moment_sum(row: tuple, moments: tuple, mod: int) -> int:
    """sum_k (1 + x_k)^a = sum_r C(a, r) c_r modulo mod | p^len(row), for p | x_k.

    ``row`` is C(a, 0..n-1) and c_r = sum_k x_k^r: the terms r >= n vanish.
    """
    return sum(map(operator.mul, row, moments)) % mod


def _row(a: int) -> tuple[int, ...]:
    return tuple(generalized_binomial(a, r) for r in range(6))  # C(a, r) for r < 6


def binomial_power_sum(a: int, p: int, e: int = 6) -> PResidue:
    """sum_{k=0}^{p-1} (-1)^(ak) C(p-1, k)^a in Z / p^e (direct route).

    The sum is a's row C(a, 0..5) times the moments of the context of p,
    which one power pass forms for every a (``PrimeContext.unit_moments``):
    the claims' direct side, read modulo p^e for e <= 6.
    """
    require_admissible(p)
    return PResidue(_direct(_row(a), p, e), p, e)


def binomial_power_sum_closed_form(a: int, p: int, e: int = 6) -> PResidue:
    """(a-1)p / (ap-1) * (1 + a(a+1)(3a-2)/6 * p^3 * X) in Z / p^e.

    X enters only as p^4 * X, so X modulo p^2 serves every e <= 6, the
    precision of the congruence itself.
    """
    require_admissible(p)
    return PResidue(_closed_form(a, p, p**e, prime_context(p, e).invariant(p)), p, e)


def _closed_form(a: int, p: int, mod: int, x: int) -> int:
    bracket = 1 + a * (a + 1) * (3 * a - 2) * pow(6, -1, mod) * p**3 * x
    return (a - 1) * p * pow(a * p - 1, -1, mod) * bracket % mod


def binomial_power_sum_via_mhs(a: int, p: int, e: int = 6) -> PResidue:
    """The same sum through the partition expansion of prod (1 - p/j)^a.

    Expands (1 + sum_{j=1}^5 (-p)^j H_k({1}^j))^a with generalized binomials
    and sums each product of homogeneous harmonic sums by brute force mod p^e.
    Valid modulo p^6 since dropped terms carry at least six powers of p.
    The sums of products, times (-p)^j, are grouped once per prime into
    the six moments of the context of p (``PrimeContext.expansion_moments``)
    that each a sums with C(a, r).  Shares no table with
    :func:`binomial_power_sum`: each pass of the context of p inverts its
    own 1/j.
    """
    require_admissible(p)
    return PResidue(moment_sum(_row(a), prime_context(p, e).expansion_moments(p), p**6), p, e)


def alternating_power_sum(n: int, a: int) -> Fraction:
    """Exact sum_{k=0}^{n-1} (-1)^(ak) C(n-1, k)^a (rational for a < 0)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = Fraction(0)
    for k in range(n):
        sign = -1 if (a * k) % 2 else 1
        total += sign * Fraction(comb(n - 1, k)) ** a
    return total


def staver_identity_holds(n: int) -> bool:
    """Exact check of sum_{k<=n} (1/k)C(2k,k) against the binomial form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lhs = sum(Fraction(comb(2 * k, k), k) for k in range(1, n + 1))
    rhs = Fraction(comb(2 * n, n) * (2 * n + 1), 3 * n * n) * sum(
        Fraction(1, comb(n - 1, k) ** 2) for k in range(n)
    )
    return lhs == rhs


def wolstenholme_holds(p: int) -> bool:
    """C(2p-1, p-1) = 1 modulo p^3 for primes p > 3."""
    if p <= 3 or not is_prime(p):
        raise ValueError(f"p must be a prime > 3, got {p}")
    lhs, rhs = _wolstenholme_sides(p)
    return lhs == rhs


def central_binomial_sum_exact(p: int) -> tuple[Fraction, Fraction]:
    """Exact (lhs, rhs) of sum_{k<p} (1/k)C(2k,k) = -16/3 p^2 X mod p^4."""
    require_admissible(p)
    lhs = sum(Fraction(comb(2 * k, k), k) for k in range(1, p))
    rhs = Fraction(-16, 3) * p * p * bernoulli_invariant(p)
    return lhs, rhs


def central_binomial_sum_check(p: int) -> bool:
    """Whether the central-binomial congruence holds modulo p^4 at p."""
    lhs, rhs = central_binomial_sum_exact(p)
    valuation = padic_valuation(lhs - rhs, p)
    return valuation is None or valuation >= 4


def cai_granville_holds(a: int, p: int) -> bool:
    """sum (-1)^(ak) C(p-1,k)^a = C(ap-2, p-1) modulo p^4, for a >= 1, by ``math.comb``."""
    if a < 1:
        raise ValueError("a must be >= 1")
    require_admissible(p)
    return _direct(_row(a), p, 4) == comb(a * p - 2, p - 1) % p**4


def central_binomial_sum_mod(p: int) -> tuple[int, int]:
    """(lhs, rhs) of the central-binomial congruence, both in Z / p^4.

    The left side streams C(2k,k) by the unit factor 2(2k-1)/k in the
    harmonic pass of the context of p, so no step divides by p; the right
    side needs only X modulo p^2.
    """
    require_admissible(p)
    mod = p**4
    context = prime_context(p)
    rhs = -16 * pow(3, -1, mod) * p * p * context.invariant(p)
    return context.binomials(p)[2] % mod, rhs % mod


class BinomialClaim(NamedTuple):
    """A per-prime claim whose two sides come from ``sides``, which reads only its ``groups``."""

    claim_id: str
    exponent: int
    sides: Callable[[int], tuple[int, int]]
    groups: tuple[str, ...] = ()  # the groups of PrimeContext that ``sides`` reads

    check = check_residues


def _direct(row: tuple, p: int, e: int = 6) -> int:
    """sum_k u_k^a modulo p^e (e <= 6): a's row times the unit moments of the context of p."""
    return moment_sum(row, prime_context(p, e).unit_moments(p), p**e)


def _closed_form_sides(a: int, row: tuple, p: int) -> tuple[int, int]:
    return _direct(row, p), _closed_form(a, p, p**6, prime_context(p).invariant(p))


def _expansion_sides(row: tuple, p: int) -> tuple[int, int]:
    return moment_sum(row, prime_context(p).expansion_moments(p), p**6), _direct(row, p)


def _anchor_sides(a: int, row: tuple, p: int) -> tuple[int, int]:
    return _direct(row, p), p if a == 0 else 0  # p ones; (1 - 1)^(p-1)


def _single_binomial_sides(a: int, row: tuple, p: int) -> tuple[int, int]:
    # C(ap-2, p-1) = (a-1)p F_(a-1) / (ap-1); at a = 1 no binomial is read
    context, mod = prime_context(p), p**4
    rhs = (a - 1) * p * context.binomials(p)[a - 2] * pow(a * p - 1, -1, mod) if a > 1 else 0
    return _direct(row, p, 4), rhs % mod


def _wolstenholme_sides(p: int) -> tuple[int, int]:
    # C(2p-1, p-1) = F_1 = prod_{m<p} (1 + p/m)
    return prime_context(p).binomials(p)[0] % p**3, 1


def theorem_claims(amin: int = -6, amax: int = 6) -> tuple[BinomialClaim, ...]:
    """Direct vs closed form and expansion vs direct for each a, then the anchors.

    Each a's row C(a, 0..5) is formed once and bound into its claims, which
    all read the group "powers", and the expansion claims the product sums.
    """
    rows = {a: _row(a) for a in range(amin, amax + 1)}
    powers = ("powers",)
    claims = [
        BinomialClaim(f"binomial-power-sum{route}:a={a}", 6, sides, groups)
        for a, row in rows.items()
        for route, sides, groups in (
            ("", partial(_closed_form_sides, a, row), powers),
            ("-expansion", partial(_expansion_sides, row), ("sum", "powers")),
        )
    ]
    claims += [
        BinomialClaim(f"binomial-power-sum-anchor:a={a}", 6, partial(_anchor_sides, a, row), powers)
        for a, row in rows.items()
        if a in (0, 1)
    ]
    return tuple(claims)


CAI_GRANVILLE_CLAIMS = tuple(
    BinomialClaim(
        f"binomial-vs-single-binomial:a={a}", 4, partial(_single_binomial_sides, a, _row(a)),
        ("binomials", "powers") if a > 1 else ("powers",),  # a = 1 reads no F_c
    )
    for a in (1, 2, 3)
)

COROLLARY_CLAIMS = (
    BinomialClaim("central-binomial-sum", 4, central_binomial_sum_mod, ("binomials",)),
    BinomialClaim("wolstenholme", 3, _wolstenholme_sides, ("binomials",)),
)


# Staver's left side on the running scale L_n = lcm(1..n), one state per
# thread: (n, L_n, C(2n, n), L_n * sum_{k<=n} C(2k,k)/k).  The staver suite
# checks n = 1, 2, ... in turn, so each check advances it by one step.
_local = threading.local()
_START = (0, 1, 1, 0)


def _staver_left(n: int) -> tuple[int, int, int]:
    """(L_n, C(2n, n), L_n * sum_{k<=n} C(2k,k)/k), advanced from this thread's state.

    A state past n is dropped and the sum starts again from n = 0.  L grows
    by q = k / gcd(L, k), which is 1 unless k is a prime power.
    """
    state = getattr(_local, "staver", _START)
    m, lcm, central, left = state if state[0] <= n else _START
    for k in range(m + 1, n + 1):
        growth = k // gcd(lcm, k)
        lcm *= growth
        central = _exact_quotient(central * 2 * (2 * k - 1), k)
        left = left * growth + central * _exact_quotient(lcm, k)
    _local.staver = (n, lcm, central, left)
    return lcm, central, left


def _staver_on_integers(n: int) -> bool:
    """Staver's identity at n, cross-multiplied over L = lcm(1..n): integers only.

    L times the left side comes from :func:`_staver_left`.  On the right,
    lcm_k C(n-1, k) = L/n = M, so sum_{k<n} 1/C(n-1,k)^2 = Q / M^2 with
    Q = sum_k q_k^2, q_k = M / C(n-1, k): q_0 = M, q_(k+1) = q_k (k+1)/(n-1-k).
    Every division is checked, so a wrong scale raises ArithmeticError.
    """
    lcm, central, left = _staver_left(n)
    scale = q = _exact_quotient(lcm, n)
    squares = q * q
    for k in range(n - 1):
        q = _exact_quotient(q * (k + 1), n - 1 - k)
        squares += q * q
    return 3 * n * n * scale * scale * left == lcm * central * (2 * n + 1) * squares


class StaverClaim(NamedTuple):
    """Staver's identity at one n, checked exactly on integers (see staver_identity_holds)."""

    n: int

    @property
    def claim_id(self) -> str:
        return f"staver:n={self.n}"

    def check(self) -> CheckResult:
        return CheckResult(self.claim_id, None, None, None, None, _staver_on_integers(self.n))


def theorem_suite(p: int, amin: int = -6, amax: int = 6) -> list[CheckResult]:
    """Direct vs closed form and direct vs expansion, over a range of a."""
    return check_at(theorem_claims(amin, amax), p)


def cai_granville_suite(p: int) -> list[CheckResult]:
    return check_at(CAI_GRANVILLE_CLAIMS, p)


def corollary_suite(p: int) -> list[CheckResult]:
    return check_at(COROLLARY_CLAIMS, p)
