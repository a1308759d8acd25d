"""Sums of powers of signed binomial coefficients modulo prime powers.

For a prime p > 5 and any integer a, the sum over k of
(-1)^(ak) * C(p-1, k)^a satisfies, modulo p^6,

    sum = (a-1)p / (ap-1) * (1 + a(a+1)(3a-2)/6 * p^3 * X)

with X = bernoulli_invariant(p), which enters only modulo p^2.  Two wholly
independent evaluations of the left side are provided: the direct one powers
up the product formula (-1)^k C(p-1,k) = prod_{j<=k} (1 - p/j), while the
expansion route rewrites that product in homogeneous harmonic sums and sums
over partitions.  Their agreement re-verifies the congruence tables along the
way.  Both read their residues at p from the context of p
(congruences.prime_context), which holds the units, X mod p^2 and each sum.

Also covered: Staver's finite identity for sum (1/k) C(2k,k), Wolstenholme's
congruence, the central-binomial consequence modulo p^4, and the classical
C(ap-2, p-1) congruence modulo p^4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, factorial
from typing import Callable

from .bernoulli import bernoulli_invariant
from .congruences import prime_context
from .partitions import arrangement_count, partitions_of
from .report import CheckResult, ResidueClaim
from .residues import PResidue, is_prime, padic_valuation, require_admissible

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


def generalized_binomial(a: int, r: int) -> int:
    """C(a, r) = a(a-1)...(a-r+1) / r! for any integer a, always an integer."""
    if r < 0:
        raise ValueError("r must be >= 0")
    numerator = 1
    for i in range(r):
        numerator *= a - i
    quotient, remainder = divmod(numerator, factorial(r))
    if remainder:
        raise ArithmeticError(f"falling factorial of {a} is not divisible by {r}!")
    return quotient


def signed_binomial_power(k: int, a: int, p: int, e: int = 6) -> PResidue:
    """((-1)^k C(p-1, k))^a in Z / p^e, from the units of the context of p.

    The base is 1 mod p, hence a unit, so negative a inverts cleanly.
    """
    require_admissible(p)
    if not 0 <= k <= p - 1:
        raise ValueError("k must lie in [0, p-1]")
    units, inverses = prime_context(p, e).units
    base = inverses[k] if a < 0 else units[k]
    return PResidue(pow(base, abs(a), p**e), p, e)


def binomial_power_sum(a: int, p: int, e: int = 6) -> PResidue:
    """sum_{k=0}^{p-1} (-1)^(ak) C(p-1, k)^a in Z / p^e (direct route), once per a at p."""
    require_admissible(p)
    return PResidue(prime_context(p, e).power_sum(a), p, e)


def binomial_power_sum_closed_form(a: int, p: int, e: int = 6) -> PResidue:
    """(a-1)p / (ap-1) * (1 + a(a+1)(3a-2)/6 * p^3 * X) in Z / p^e.

    X enters only as p^4 * X, so X modulo p^2 serves every e <= 6, the
    precision of the congruence itself.
    """
    require_admissible(p)
    if e > 6:
        raise ValueError("the closed form only holds modulo p^6")
    mod = p**e
    x = prime_context(p, e).invariant
    bracket = 1 + a * (a + 1) * (3 * a - 2) * pow(6, -1, mod) * p**3 * x
    return PResidue((a - 1) * p * pow(a * p - 1, -1, mod) * bracket, p, e)


# Each partition lam of j <= 5, by j and then by length, with its arrangement count
_PARTITIONS = tuple((lam, arrangement_count(lam)) for j in range(1, 6) for lam in partitions_of(j))


def _expansion_terms(a: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """The nonzero terms (j, lam, C(a, r) * arrangements of lam), lam of j into r parts."""
    terms = []
    for lam, count in _PARTITIONS:
        c_ar = generalized_binomial(a, len(lam))
        if c_ar:
            terms.append((sum(lam), lam, c_ar * count))
    return tuple(terms)


def _expansion_sum(terms: tuple, p: int, e: int) -> PResidue:
    """p + sum of (-p)^j * coeff * homogeneous_product_sum_mod(lam) over the terms."""
    require_admissible(p)
    if e > 6:
        raise ValueError("the weight-5 truncation only supports e <= 6")
    context = prime_context(p, e)
    total = p
    for j, lam, coeff in terms:
        total += (-p) ** j * coeff * context.product_sum(lam)
    return PResidue(total, p, e)


def binomial_power_sum_via_mhs(a: int, p: int, e: int = 6) -> PResidue:
    """The same sum through the partition expansion of prod (1 - p/j)^a.

    Expands (1 + sum_{j=1}^5 (-p)^j H_k({1}^j))^a with generalized binomials
    and sums each product of homogeneous harmonic sums by brute force mod p^e.
    Valid modulo p^6 since dropped terms carry at least six powers of p.
    Shares nothing with :func:`binomial_power_sum` beyond residue arithmetic
    and the inverses 1/j of the context of p.
    """
    return _expansion_sum(_expansion_terms(a), p, e)


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
    return comb(2 * p - 1, p - 1) % p**3 == 1


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
    """sum (-1)^(ak) C(p-1,k)^a = C(ap-2, p-1) modulo p^4, for a >= 1."""
    if a < 1:
        raise ValueError("a must be >= 1")
    lhs, rhs = _single_binomial_sides(a, p)  # binomial_power_sum requires p > 5 prime
    return lhs == rhs


def central_binomial_sum_mod(p: int) -> tuple[int, int]:
    """(lhs, rhs) of the central-binomial congruence, both in Z / p^4.

    Streams C(2k,k) by the unit factor 2(2k-1)/k, with 1/k from the context
    of p, so no step divides by p; the right side needs only X modulo p^2.
    """
    require_admissible(p)
    mod = p**4
    context = prime_context(p, 4)
    central = 1
    lhs = 0
    for k in range(1, p):
        inverse = context.inverses[k]
        central = central * 2 * (2 * k - 1) * inverse % mod
        lhs += central * inverse
    rhs = -16 * pow(3, -1, mod) * p * p * context.invariant
    return lhs % mod, rhs % mod


@dataclass(frozen=True)
class BinomialClaim(ResidueClaim):
    """A per-prime claim whose two sides come from the function ``sides``."""

    claim_id: str
    exponent: int
    sides: Callable[[int], tuple[int, int]]


def _closed_form_sides(a: int, p: int) -> tuple[int, int]:
    return binomial_power_sum(a, p).value, binomial_power_sum_closed_form(a, p).value


def _expansion_sides(a: int, terms: tuple, p: int) -> tuple[int, int]:
    return _expansion_sum(terms, p, 6).value, binomial_power_sum(a, p).value


def _anchor_sides(a: int, p: int) -> tuple[int, int]:
    return binomial_power_sum(a, p).value, p if a == 0 else 0  # p ones; (1 - 1)^(p-1)


def _single_binomial_sides(a: int, p: int) -> tuple[int, int]:
    return binomial_power_sum(a, p, 4).value, comb(a * p - 2, p - 1) % p**4


def _wolstenholme_sides(p: int) -> tuple[int, int]:
    return comb(2 * p - 1, p - 1) % p**3, 1


def theorem_claims(amin: int = -6, amax: int = 6) -> tuple[BinomialClaim, ...]:
    """Direct vs closed form and expansion vs direct for each a, then the anchors."""
    claims = [
        BinomialClaim(f"binomial-power-sum{route}:a={a}", 6, sides)
        for a in range(amin, amax + 1)
        for route, sides in (
            ("", partial(_closed_form_sides, a)),
            ("-expansion", partial(_expansion_sides, a, _expansion_terms(a))),  # built once
        )
    ]
    claims += [
        BinomialClaim(f"binomial-power-sum-anchor:a={a}", 6, partial(_anchor_sides, a))
        for a in (0, 1)
        if amin <= a <= amax
    ]
    return tuple(claims)


CAI_GRANVILLE_CLAIMS = tuple(
    BinomialClaim(f"binomial-vs-single-binomial:a={a}", 4, partial(_single_binomial_sides, a))
    for a in (1, 2, 3)
)

COROLLARY_CLAIMS = (
    BinomialClaim("central-binomial-sum", 4, central_binomial_sum_mod),
    BinomialClaim("wolstenholme", 3, _wolstenholme_sides),
)


@dataclass(frozen=True)
class StaverClaim:
    """Staver's identity at one n, checked exactly."""

    n: int

    @property
    def claim_id(self) -> str:
        return f"staver:n={self.n}"

    def check(self) -> CheckResult:
        return CheckResult(self.claim_id, None, None, None, None, staver_identity_holds(self.n))


def theorem_suite(p: int, amin: int = -6, amax: int = 6) -> list[CheckResult]:
    """Direct vs closed form and direct vs expansion, over a range of a."""
    return [claim.check(p) for claim in theorem_claims(amin, amax)]


def cai_granville_suite(p: int) -> list[CheckResult]:
    return [claim.check(p) for claim in CAI_GRANVILLE_CLAIMS]


def corollary_suite(p: int) -> list[CheckResult]:
    return [claim.check(p) for claim in COROLLARY_CLAIMS]


def staver_suite(nmax: int) -> list[CheckResult]:
    return [StaverClaim(n).check() for n in range(1, nmax + 1)]
