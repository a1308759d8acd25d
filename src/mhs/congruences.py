"""Prime-power congruences for multiple harmonic sums.

Two registries of claims, shipped as data so the CLI can list and select
them:

* base claims: H_{p-1}(s) modulo p^e for small compositions s, expressed in
  the prime p and the Bernoulli invariant X = bernoulli_invariant(p), of
  which every right side needs only X mod p^2 (bernoulli_invariant_mod);
* sum claims: sum_{k=1}^{p-1} of products of homogeneous H_k({1}^j) modulo
  p^e, one row per partition of the total weight (up to 5).

Left sides are evaluated by streaming modular brute force, never through the
symbolic engine, so a passing suite is an independent confirmation of the
identities.  Every residue value at a prime is read from one PrimeContext,
which this thread keeps until the prime or the modulus changes.  A separate
symbolic cross-derivation re-obtains the weight <= 3 sum rows by substituting
the base congruences into the closed-form summation identities, with explicit
error-term bookkeeping.
"""

from __future__ import annotations

import operator
import threading
from fractions import Fraction
from functools import cached_property
from math import inf
from typing import Iterable, NamedTuple

from .algebra import NPolynomial
from .bernoulli import bernoulli_invariant_mod
from .core import Composition, mhs_row
from .partitions import partitions_of
from .report import CheckResult, check_residues
from .residues import PResidue, batch_inverse, require_admissible

__all__ = [
    "BASE_CLAIMS",
    "SUM_CLAIMS",
    "CongruenceClaim",
    "PrimeContext",
    "base_congruence_suite",
    "cross_derivation_check",
    "homogeneous_product_sum_mod",
    "mhs_mod",
    "prime_context",
    "sum_congruence_suite",
]


# Entries of k per pass of a power row: bounds the row's memory, not the work.
_BLOCK = 4096
# A product-sum miss of weight <= 5 sums every partition of weight <= 5: the
# sum rows and the p^6 expansion read exactly those.
_WEIGHT = 5
# Those partitions, by weight and then by length: the order of
# PrimeContext.expansion_weights.
PARTITIONS = tuple(lam for j in range(1, _WEIGHT + 1) for lam in partitions_of(j))


class PrimeContext:
    """The residue state of one prime p modulo mod = p^max(e, 6), each part built on first use.

    Every check at p modulo p^e reads it through Z/mod -> Z/p^e, so the checks
    at p share one batch inversion, the tables j^(-s), the rows H_k({1}^j) for
    k < p, X mod p^2, the signed binomial units, and each sum of products or
    powers.  The sums are whole-row passes: a product row is its prefix's row
    times one row H({1}^j), a power row the previous power times the units.
    Those rows live only in the call that sums them; the context keeps the
    sums alone.  Two reads are dot products: H_{p-1}(s) is the row of s[:-1]
    against the table j^(-s_d), so no row of s itself is built, and the
    partition expansion of the theorem at any a is its coefficients against
    the weights (-p)^|lam| * S(lam), formed once per prime.  The units are
    kept for k <= (p-1)/2 only: u_(p-1-k) = u_k for odd p, so each power
    sum runs over half the row.
    """

    def __init__(self, p: int, mod: int):
        self.p, self.mod = p, mod
        self.rows: dict = {}  # composition -> [H_0, ..., H_{p-1}], grown by mhs_row
        self.powers: dict = {}  # s -> [0, 1^-s, ..., (p-1)^-s]
        self.product_sums: dict = {(): (p - 1) % mod}  # partition -> its sum; empty: p - 1 ones
        self.power_sums: dict = {}  # a -> sum_k u_k^a

    @cached_property
    def inverses(self) -> list:
        """[0, 1/1, ..., 1/(p-1)], from one batch inversion."""
        return [0] + batch_inverse(range(1, self.p), self.mod)

    def inverse_powers(self, s: int) -> list:
        """[0, 1^-s, ..., (p-1)^-s], the factors of the rows with part s."""
        powers, inverses, mod = self.powers, self.inverses, self.mod
        powers.setdefault(1, inverses)  # s = 1 shares the table rather than copy it
        for t in range(len(powers) + 1, s + 1):  # each table the last times the inverses
            powers[t] = [x * y % mod for x, y in zip(powers[t - 1], inverses)]
        return powers[s]

    def mhs(self, s: tuple) -> int:
        """H_{p-1}(s), as sum_{j<p} H_{j-1}(s[:-1]) * j^(-s_d): one dot product.

        Only the row of the prefix s[:-1] is built (see core.mhs_row), and
        for every base claim that prefix is a row H({1}^j) the product sums
        read anyway.  The empty composition gives 1.
        """
        if not s:
            return 1
        prefix = mhs_row(s[:-1], self.p - 1, self.rows, self)
        return sum(map(operator.mul, prefix, self.inverse_powers(s[-1])[1:])) % self.mod

    @cached_property
    def invariant(self) -> int:
        """X = bernoulli_invariant(p) modulo p^2."""
        return bernoulli_invariant_mod(self.p)

    @cached_property
    def units(self) -> tuple[list, list]:
        """(u, 1/u) for k <= (p-1)/2, u_k = (-1)^k C(p-1, k) = prod_{j<=k} (1 - p/j).

        The other half repeats it: u_(p-1-k) = u_k for odd p.  The inverses
        are a running product too, 1/(1 - p/j) = -j * (1/(p - j)), over the
        context's inverses, so they cost no second inversion.
        """
        p, mod, inverses = self.p, self.mod, self.inverses
        units, inverted = [1], [1]
        for j in range(1, (p + 1) // 2):
            units.append(units[-1] * (1 - p * inverses[j]) % mod)
            inverted.append(inverted[-1] * -j * inverses[p - j] % mod)
        return units, inverted

    def product_sum(self, lam: tuple[int, ...]) -> int:
        """sum_{k=1}^{p-1} prod_i H_k({1}^lam_i), for parts lam_i >= 1 in any order.

        A miss of weight at most 5 sums every partition of weight at most 5
        in one depth-first walk over partition prefixes (see
        :meth:`_sum_products`); a heavier miss sums lam alone, as one product
        of its rows H({1}^lam_i).  A part below 1 raises ValueError.
        """
        sums = self.product_sums
        if lam not in sums:
            lam = tuple(sorted(lam, reverse=True))  # as the walk forms partitions
            if lam not in sums:
                if lam[-1] < 1:  # the walk forms no such partition
                    raise ValueError(f"partition parts must be >= 1, got {lam[-1]}")
                if sum(lam) <= _WEIGHT:
                    self._sum_products()
                else:
                    self._sum_partition(lam)
        return sums[lam]

    def _sum_partition(self, lam: tuple) -> None:
        """Sum lam alone: one pass over k per part after the first."""
        mod, p = self.mod, self.p
        row = mhs_row((1,) * lam[0], p - 1, self.rows, self)
        for j in lam[1:]:
            row = [x * y % mod for x, y in zip(row, mhs_row((1,) * j, p - 1, self.rows, self))]
        self.product_sums[lam] = sum(row) % mod

    def _sum_products(self) -> None:
        """Sum each partition of weight <= 5 that has no sum yet.

        The row of a partition lam is the row of lam[:-1] times the row
        H({1}^lam[-1]), so each partition costs one pass over k whatever its
        length.  A row lives while the walk is below its partition, and the
        row of a partition that nothing extends is never stored.
        """
        ones = {j: mhs_row((1,) * j, self.p - 1, self.rows, self) for j in range(1, _WEIGHT + 1)}
        for j, row in ones.items():
            self._sum_extensions((j,), row, _WEIGHT - j, ones)

    def _sum_extensions(self, lam: tuple, row: list, left: int, ones: dict) -> None:
        """Sum lam from its row, then each partition lam + (parts <= lam[-1]) of ``left`` more."""
        mod, sums = self.mod, self.product_sums
        if lam not in sums:
            sums[lam] = sum(row) % mod
        for j in range(1, min(lam[-1], left) + 1):
            child = lam + (j,)
            if j < left:
                child_row = [x * y % mod for x, y in zip(row, ones[j])]
                self._sum_extensions(child, child_row, left - j, ones)
            elif child not in sums:
                sums[child] = sum(map(operator.mul, row, ones[j])) % mod

    @cached_property
    def expansion_weights(self) -> tuple:
        """(-p)^|lam| * S(lam) modulo mod for each lam in PARTITIONS, S the product sum."""
        p, mod = self.p, self.mod
        return tuple((-p) ** sum(lam) * self.product_sum(lam) % mod for lam in PARTITIONS)

    def power_sum(self, a: int) -> int:
        """sum_{k=0}^{p-1} u_k^a; negative a powers 1/u."""
        if a not in self.power_sums:
            self.sum_powers((a,))
        return self.power_sums[a]

    def sum_powers(self, exponents: Iterable[int]) -> None:
        """Form sum_k u_k^a for each a in ``exponents`` that has no sum yet.

        One running row per sign, u, u^2, ... (or 1/u, 1/u^2, ...) up to the
        largest wanted |a|, is summed as it passes each wanted exponent.  It
        runs over the half table k <= m = (p-1)/2, because u_(p-1-k) = u_k:
        the whole sum is twice the half's, less the middle term u_m^a.  The
        row runs over _BLOCK entries of k at a time, so it stays small.
        """
        mod, sums = self.mod, self.power_sums
        missing = {a for a in exponents if a not in sums}
        if 0 in missing:
            sums[0] = self.p % mod  # p ones
        for sign in (1, -1):
            totals = dict.fromkeys((sign * a for a in missing if sign * a > 0), 0)
            if not totals:
                continue
            half, top = self.units[sign < 0], max(totals)
            for start in range(0, len(half), _BLOCK):
                row = bases = half[start : start + _BLOCK]
                for exponent in range(1, top + 1):
                    if exponent > 1:
                        row = [x * b % mod for x, b in zip(row, bases)]
                    if exponent in totals:
                        totals[exponent] += sum(row)
            for exponent, total in totals.items():
                sums[sign * exponent] = (2 * total - pow(half[-1], exponent, mod)) % mod


# One context per thread, replaced when p or the modulus changes: a
# prime-major sweep builds each prime's state once and holds one prime's at
# a time, and no thread reads another's, so nothing needs a lock.
_local = threading.local()


def prime_context(p: int, e: int = 6) -> PrimeContext:
    """This thread's context of p modulo p^max(e, 6), new if p or the modulus changed.

    The held context is recognised by (p, max(e, 6)), so a hit computes no
    power of p; every check at p asks for it at least once.
    """
    top = e if e > 6 else 6
    held = getattr(_local, "held", None)
    if held is None or held[0] != p or held[1] != top:
        held = _local.held = (p, top, PrimeContext(p, p**top))
    return held[2]


def mhs_mod(s: Iterable[int], p: int, e: int = 1) -> PResidue:
    """H_{p-1}(s) in Z / p^e by streaming evaluation.

    All denominators are products of integers below p, hence units; the full
    rational value is never materialized.  The value is one dot product over
    the context of p (see :meth:`PrimeContext.mhs`), which every check at p
    shares.
    """
    return PResidue(prime_context(p, e).mhs(tuple(Composition(s))), p, e)


def homogeneous_product_sum_mod(lam: tuple[int, ...], p: int, e: int) -> int:
    """sum_{k=1}^{p-1} prod_i H_k({1}^lam_i) in Z / p^e, by brute force.

    The sum is kept once per partition in the context of p and reduced mod
    p^e; its rows H_k({1}^j) come from the same context, so all partitions
    and exponents at p share them, and a miss of weight <= 5 sums every
    partition of weight <= 5 in one walk (see :meth:`PrimeContext.product_sum`).
    """
    return prime_context(p, e).product_sum(lam) % p**e


class CongruenceClaim(NamedTuple):
    """One congruence, with its right side as a polynomial in p and X."""

    claim_id: str
    kind: str  # "mhs" for H_{p-1}(s), "sum" for sum of products over k
    target: tuple[int, ...]  # composition (mhs) or partition of the weight (sum)
    rhs_terms: tuple[tuple[tuple[int, int], int], ...]  # ((p_exp, x_exp), coeff)
    exponent: int

    check = check_residues

    def rhs_value(self, p: int) -> int:
        """The right side in Z / p^e, from X modulo p^2 only.

        A term p^i * X^j (j > 0) is determined modulo p^(i+2), so every X
        term must have e - i <= 2; a claim that breaks this is refused.
        """
        e = self.exponent
        for (i, j), _ in self.rhs_terms:
            if j and e - i > 2:
                raise ArithmeticError(
                    f"{self.claim_id}: p^{i}*X^{j} mod p^{e} needs X beyond mod p^2"
                )
        mod = p**e
        x = prime_context(p, e).invariant
        return sum(coeff * p**i * pow(x, j, mod) for (i, j), coeff in self.rhs_terms) % mod

    def sides(self, p: int) -> tuple[int, int]:
        """Both sides in Z / p^e, the left one read from the context of p."""
        context = prime_context(p, self.exponent)
        lhs = context.mhs(self.target) if self.kind == "mhs" else context.product_sum(self.target)
        return lhs % p**self.exponent, self.rhs_value(p)


def _claim(kind: str, target: tuple[int, ...], rhs: dict, e: int) -> CongruenceClaim:
    return CongruenceClaim(
        claim_id=f"{'H' if kind == 'mhs' else 'S'}:{Composition(target)}",
        kind=kind,
        target=target,
        rhs_terms=tuple(sorted(rhs.items())),
        exponent=e,
    )


# H_{p-1}(s) block: the eight stated congruences plus the homogeneous forms
# that follow from the Hoffman reductions.
BASE_CLAIMS: tuple[CongruenceClaim, ...] = (
    _claim("mhs", (1,), {(2, 1): 2}, 4),
    _claim("mhs", (2,), {(1, 1): -4}, 3),
    _claim("mhs", (3,), {}, 2),
    _claim("mhs", (1, 2), {(0, 1): -6}, 2),
    _claim("mhs", (4,), {}, 1),
    _claim("mhs", (1, 1, 2), {}, 1),
    _claim("mhs", (1, 3), {}, 1),
    _claim("mhs", (1, 1), {(1, 1): 2}, 3),
    _claim("mhs", (1, 1, 1), {}, 2),
    _claim("mhs", (1, 1, 1, 1), {}, 1),
)

# Sum block: one row per partition of the weight, weights 1 through 5,
# at moduli p^5 down to p.
SUM_CLAIMS: tuple[CongruenceClaim, ...] = (
    _claim("sum", (1,), {(0, 0): 1, (1, 0): -1, (3, 1): 2}, 5),
    _claim("sum", (2,), {(0, 0): -1, (1, 0): 1, (2, 1): 4, (3, 1): -2}, 4),
    _claim("sum", (1, 1), {(0, 0): -2, (1, 0): 2, (2, 1): 2, (3, 1): -4}, 4),
    _claim("sum", (3,), {(0, 0): 1, (1, 0): -1, (1, 1): 2, (2, 1): -4}, 3),
    _claim("sum", (2, 1), {(0, 0): 3, (1, 0): -3, (2, 1): -6}, 3),
    _claim("sum", (1, 1, 1), {(0, 0): 6, (1, 0): -6, (1, 1): -2, (2, 1): -6}, 3),
    _claim("sum", (4,), {(0, 0): -1, (1, 0): 1, (1, 1): -2}, 2),
    _claim("sum", (2, 2), {(0, 0): -6, (1, 0): 6, (0, 1): -6}, 2),
    _claim("sum", (3, 1), {(0, 0): -4, (1, 0): 4, (1, 1): -2}, 2),
    _claim("sum", (2, 1, 1), {(0, 0): -12, (1, 0): 12, (0, 1): -6, (1, 1): 2}, 2),
    _claim("sum", (1, 1, 1, 1), {(0, 0): -24, (1, 0): 24, (0, 1): -12, (1, 1): 8}, 2),
    _claim("sum", (5,), {(0, 0): 1}, 1),
    _claim("sum", (4, 1), {(0, 0): 5}, 1),
    _claim("sum", (3, 2), {(0, 0): 10, (0, 1): 6}, 1),
    _claim("sum", (3, 1, 1), {(0, 0): 20, (0, 1): 6}, 1),
    _claim("sum", (2, 2, 1), {(0, 0): 30, (0, 1): 18}, 1),
    _claim("sum", (2, 1, 1, 1), {(0, 0): 60, (0, 1): 30}, 1),
    _claim("sum", (1, 1, 1, 1, 1), {(0, 0): 120, (0, 1): 60}, 1),
)


def base_congruence_suite(p: int) -> list[CheckResult]:
    """Check every base claim at the prime p."""
    require_admissible(p)
    return [claim.check(p) for claim in BASE_CLAIMS]


def sum_congruence_suite(p: int) -> list[CheckResult]:
    """Check every sum-of-products claim at the prime p."""
    require_admissible(p)
    return [claim.check(p) for claim in SUM_CLAIMS]


# ---------------------------------------------------------------------------
# Symbolic cross-derivation: substitute the base congruences into the
# closed-form identities and re-obtain the weight <= 3 sum rows.
# ---------------------------------------------------------------------------


class PadicForm:
    """A value known as a polynomial in p and X up to an O(p^err) error.

    ``terms`` maps (p_exponent, x_exponent) to a rational coefficient;
    ``err = inf``, the default, means the value is exact.  X itself is
    p-integral, so a term's guaranteed valuation is its p exponent.
    """

    __slots__ = ("terms", "err")

    def __init__(self, terms: dict | None = None, err: float = inf):
        # Terms at or above p^err are absorbed by the error term.
        self.terms = {key: Fraction(c) for key, c in (terms or {}).items() if c and key[0] < err}
        self.err = err

    def valuation(self) -> float:
        """Guaranteed minimal p-valuation of the value; inf for an exact zero."""
        return min((i for i, _ in self.terms), default=self.err)  # every term lies below err

    def __add__(self, other: "PadicForm") -> "PadicForm":
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return PadicForm(terms, min(self.err, other.err))

    def __mul__(self, other: "PadicForm") -> "PadicForm":
        terms: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return PadicForm(terms, min(self.err + other.valuation(), other.err + self.valuation()))

    def __sub__(self, other: "PadicForm") -> "PadicForm":
        negated = PadicForm({k: -v for k, v in other.terms.items()}, other.err)
        return self + negated

    def congruent_to(self, other: "PadicForm", e: int) -> bool:
        """Whether both values agree modulo p^e, for every admissible p."""
        return (self - other).valuation() >= e  # an error below p^e leaves it undetermined

    def __repr__(self) -> str:
        body = " + ".join(
            f"{coeff}*p^{i}*X^{j}" for (i, j), coeff in sorted(self.terms.items())
        )
        tail = "" if self.err == inf else f" + O(p^{self.err})"
        return f"PadicForm({body or '0'}{tail})"


def _poly_at_p_minus_1(poly: NPolynomial) -> PadicForm:
    """Exact expansion of poly(p - 1) as a polynomial in p."""
    in_p = poly.compose(NPolynomial((-1, 1)))
    return PadicForm({(i, 0): c for i, c in enumerate(in_p.coeffs)})


def _symbol_congruences() -> dict[Composition, PadicForm]:
    table = {
        Composition(c.target): PadicForm(dict(c.rhs_terms), err=c.exponent) for c in BASE_CLAIMS
    }
    # H(2,1) follows from the stuffle relation H(1)H(2) = H(1,2)+H(2,1)+H(3).
    table[Composition((2, 1))] = (
        table[Composition((1,))] * table[Composition((2,))]
        - table[Composition((1, 2))]
        - table[Composition((3,))]
    )
    return table


def cross_derivation_check(lam: tuple[int, ...]) -> bool:
    """Re-derive a weight <= 3 sum row symbolically from the base congruences.

    Substitutes n = p - 1 and the known residues of each weight <= 3 symbol
    into the closed form produced by the summation engine, then compares with
    the registered right side at the claimed modulus.
    """
    from .summation import sum_product

    partition = tuple(sorted(lam, reverse=True))  # as SUM_CLAIMS lists its targets
    claim = next((c for c in SUM_CLAIMS if c.target == partition), None)
    if claim is None:
        raise ValueError(f"no sum claim for the partition {lam}")
    if sum(lam) > 3:
        raise ValueError("cross-derivation table only covers weight <= 3")
    symbols = _symbol_congruences()
    blocks = [Composition((1,) * part) for part in lam]
    total = PadicForm({})
    for key, poly in sum_product(blocks)._terms.items():  # already linear
        coeff = _poly_at_p_minus_1(poly)
        total = total + (coeff * symbols[key[0]] if key else coeff)
    rhs = PadicForm({key: coeff for key, coeff in claim.rhs_terms})
    return total.congruent_to(rhs, claim.exponent)
