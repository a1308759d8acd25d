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

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .algebra import NPolynomial
from .bernoulli import bernoulli_invariant_mod
from .core import Composition, mhs_row
from .report import CheckResult, ResidueClaim
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


class PrimeContext:
    """The residue state of one prime p modulo mod = p^max(e, 6), each part built on first use.

    Every check at p modulo p^e reads it through Z/mod -> Z/p^e, so the checks
    at p share one batch inversion, the tables j^(-s), the rows H_k(s) for k < p,
    X mod p^2, the signed binomial units, and each sum of products or powers.
    """

    def __init__(self, p: int, mod: int):
        self.p, self.mod = p, mod
        self.rows: dict = {}  # composition -> [H_0, ..., H_{p-1}], grown by mhs_row
        self.powers: dict = {}  # s -> [0, 1^-s, ..., (p-1)^-s]
        self.product_sums: dict = {}  # partition -> homogeneous_product_sum_mod
        self.power_sums: dict = {}  # a -> sum_k u_k^a

    @cached_property
    def inverses(self) -> list:
        """[0, 1/1, ..., 1/(p-1)], from one batch inversion."""
        return [0] + batch_inverse(range(1, self.p), self.mod)

    def inverse_powers(self, s: int) -> list:
        """[0, 1^-s, ..., (p-1)^-s], the factors of the rows with part s."""
        if s not in self.powers:
            self.powers[s] = [pow(inverse, s, self.mod) for inverse in self.inverses]
        return self.powers[s]

    @cached_property
    def invariant(self) -> int:
        """X = bernoulli_invariant(p) modulo p^2."""
        return bernoulli_invariant_mod(self.p)

    @cached_property
    def units(self) -> tuple[list, list]:
        """(u, 1/u) for u_k = (-1)^k C(p-1, k) = prod_{j<=k} (1 - p/j), k < p."""
        units = [1]
        for inverse in self.inverses[1:]:
            units.append(units[-1] * (1 - self.p * inverse) % self.mod)
        return units, batch_inverse(units, self.mod)

    def product_sum(self, lam: tuple[int, ...]) -> int:
        """sum_{k=1}^{p-1} prod_i H_k({1}^lam_i), by brute force over the rows."""
        if lam not in self.product_sums:
            p, mod = self.p, self.mod
            factors = [mhs_row((1,) * part, p - 1, self.rows, self) for part in lam]
            total = 0
            for k in range(1, p):
                term = 1
                for row in factors:
                    term = term * row[k] % mod
                total += term
            self.product_sums[lam] = total % mod
        return self.product_sums[lam]

    def power_sum(self, a: int) -> int:
        """sum_{k=0}^{p-1} u_k^a; negative a powers 1/u."""
        if a not in self.power_sums:
            units, inverses = self.units
            bases, exponent, mod = inverses if a < 0 else units, abs(a), self.mod
            self.power_sums[a] = sum(pow(b, exponent, mod) for b in bases) % mod
        return self.power_sums[a]


# One context per thread, replaced when p or the modulus changes: a
# prime-major sweep builds each prime's state once and holds one prime's at
# a time, and no thread reads another's, so nothing needs a lock.
_local = threading.local()


def prime_context(p: int, e: int = 6) -> PrimeContext:
    """This thread's context of p modulo p^max(e, 6), new if p or the modulus changed."""
    mod = p ** max(e, 6)
    context = getattr(_local, "context", None)
    if context is None or (context.p, context.mod) != (p, mod):
        context = _local.context = PrimeContext(p, mod)
    return context


def mhs_mod(s: Iterable[int], p: int, e: int = 1) -> PResidue:
    """H_{p-1}(s) in Z / p^e by streaming evaluation.

    All denominators are products of integers below p, hence units; the full
    rational value is never materialized.  The row is read from the context
    of p (see :func:`prime_context`), which every check at p shares.
    """
    context = prime_context(p, e)
    return PResidue(mhs_row(tuple(Composition(s)), p - 1, context.rows, context)[p - 1], p, e)


def homogeneous_product_sum_mod(lam: tuple[int, ...], p: int, e: int) -> int:
    """sum_{k=1}^{p-1} prod_i H_k({1}^lam_i) in Z / p^e, by brute force.

    The sum is kept once per partition in the context of p and reduced mod
    p^e; its rows H_k({1}^j) come from the same context, so all partitions
    and exponents at p share them.
    """
    return prime_context(p, e).product_sum(lam) % p**e


@dataclass(frozen=True)
class CongruenceClaim(ResidueClaim):
    """One congruence, with its right side as a polynomial in p and X."""

    claim_id: str
    kind: str  # "mhs" for H_{p-1}(s), "sum" for sum of products over k
    target: tuple[int, ...]  # composition (mhs) or partition of the weight (sum)
    rhs_terms: tuple[tuple[tuple[int, int], int], ...]  # ((p_exp, x_exp), coeff)
    exponent: int

    def rhs_value(self, p: int) -> int:
        """The right side in Z / p^e, from X modulo p^2 only.

        A term p^i * X^j (j > 0) is determined modulo p^(i+2), so every X
        term must have e - i <= 2; a claim that breaks this is refused.
        """
        e = self.exponent
        mod = p**e
        x = prime_context(p, e).invariant
        total = 0
        for (i, j), coeff in self.rhs_terms:
            if j and e - i > 2:
                raise ArithmeticError(
                    f"{self.claim_id}: p^{i}*X^{j} mod p^{e} needs X beyond mod p^2"
                )
            total += coeff * p**i * pow(x, j, mod)
        return total % mod

    def sides(self, p: int) -> tuple[int, int]:
        if self.kind == "mhs":
            return mhs_mod(self.target, p, self.exponent).value, self.rhs_value(p)
        return homogeneous_product_sum_mod(self.target, p, self.exponent), self.rhs_value(p)


def _mhs_claim(parts: tuple[int, ...], rhs: dict, e: int) -> CongruenceClaim:
    comp = Composition(parts)
    return CongruenceClaim(
        claim_id=f"H:{comp}",
        kind="mhs",
        target=tuple(comp),
        rhs_terms=tuple(sorted(rhs.items())),
        exponent=e,
    )


def _sum_claim(lam: tuple[int, ...], rhs: dict, e: int) -> CongruenceClaim:
    return CongruenceClaim(
        claim_id="S:" + ",".join(str(x) for x in lam),
        kind="sum",
        target=lam,
        rhs_terms=tuple(sorted(rhs.items())),
        exponent=e,
    )


# H_{p-1}(s) block: the eight stated congruences plus the homogeneous forms
# that follow from the Hoffman reductions.
BASE_CLAIMS: tuple[CongruenceClaim, ...] = (
    _mhs_claim((1,), {(2, 1): 2}, 4),
    _mhs_claim((2,), {(1, 1): -4}, 3),
    _mhs_claim((3,), {}, 2),
    _mhs_claim((1, 2), {(0, 1): -6}, 2),
    _mhs_claim((4,), {}, 1),
    _mhs_claim((1, 1, 2), {}, 1),
    _mhs_claim((1, 3), {}, 1),
    _mhs_claim((1, 1), {(1, 1): 2}, 3),
    _mhs_claim((1, 1, 1), {}, 2),
    _mhs_claim((1, 1, 1, 1), {}, 1),
)

# Sum block: one row per partition of the weight, weights 1 through 5,
# at moduli p^5 down to p.
SUM_CLAIMS: tuple[CongruenceClaim, ...] = (
    _sum_claim((1,), {(0, 0): 1, (1, 0): -1, (3, 1): 2}, 5),
    _sum_claim((2,), {(0, 0): -1, (1, 0): 1, (2, 1): 4, (3, 1): -2}, 4),
    _sum_claim((1, 1), {(0, 0): -2, (1, 0): 2, (2, 1): 2, (3, 1): -4}, 4),
    _sum_claim((3,), {(0, 0): 1, (1, 0): -1, (1, 1): 2, (2, 1): -4}, 3),
    _sum_claim((2, 1), {(0, 0): 3, (1, 0): -3, (2, 1): -6}, 3),
    _sum_claim((1, 1, 1), {(0, 0): 6, (1, 0): -6, (1, 1): -2, (2, 1): -6}, 3),
    _sum_claim((4,), {(0, 0): -1, (1, 0): 1, (1, 1): -2}, 2),
    _sum_claim((2, 2), {(0, 0): -6, (1, 0): 6, (0, 1): -6}, 2),
    _sum_claim((3, 1), {(0, 0): -4, (1, 0): 4, (1, 1): -2}, 2),
    _sum_claim((2, 1, 1), {(0, 0): -12, (1, 0): 12, (0, 1): -6, (1, 1): 2}, 2),
    _sum_claim((1, 1, 1, 1), {(0, 0): -24, (1, 0): 24, (0, 1): -12, (1, 1): 8}, 2),
    _sum_claim((5,), {(0, 0): 1}, 1),
    _sum_claim((4, 1), {(0, 0): 5}, 1),
    _sum_claim((3, 2), {(0, 0): 10, (0, 1): 6}, 1),
    _sum_claim((3, 1, 1), {(0, 0): 20, (0, 1): 6}, 1),
    _sum_claim((2, 2, 1), {(0, 0): 30, (0, 1): 18}, 1),
    _sum_claim((2, 1, 1, 1), {(0, 0): 60, (0, 1): 30}, 1),
    _sum_claim((1, 1, 1, 1, 1), {(0, 0): 120, (0, 1): 60}, 1),
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


def _min_opt(*values: int | None) -> int | None:
    present = [v for v in values if v is not None]
    return min(present) if present else None


class PadicForm:
    """A value known as a polynomial in p and X up to an O(p^err) error.

    ``terms`` maps (p_exponent, x_exponent) to a rational coefficient;
    ``err = None`` means the value is exact.  X itself is p-integral, so a
    term's guaranteed valuation is its p exponent.
    """

    __slots__ = ("terms", "err")

    def __init__(self, terms: dict | None = None, err: int | None = None):
        cleaned = {}
        for key, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if err is not None and key[0] >= err:
                continue  # absorbed by the error term
            cleaned[key] = cleaned.get(key, Fraction(0)) + coeff
        self.terms = {k: v for k, v in cleaned.items() if v}
        self.err = err

    def _term_valuation(self) -> int | None:
        return min((i for i, _ in self.terms), default=None)

    def valuation(self) -> int | None:
        """Guaranteed minimal p-valuation of the value; None is +infinity."""
        return _min_opt(self._term_valuation(), self.err)

    def __add__(self, other: "PadicForm") -> "PadicForm":
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return PadicForm(terms, _min_opt(self.err, other.err))

    def __mul__(self, other: "PadicForm") -> "PadicForm":
        terms: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        candidates = []
        if self.err is not None:
            v = _min_opt(other._term_valuation(), other.err)
            candidates.append(None if v is None else self.err + v)
        if other.err is not None:
            v = _min_opt(self._term_valuation(), self.err)
            candidates.append(None if v is None else other.err + v)
        err = _min_opt(*candidates) if candidates else None
        return PadicForm(terms, err)

    def __sub__(self, other: "PadicForm") -> "PadicForm":
        negated = PadicForm({k: -v for k, v in other.terms.items()}, other.err)
        return self + negated

    def congruent_to(self, other: "PadicForm", e: int) -> bool:
        """Whether both values agree modulo p^e, for every admissible p."""
        diff = self - other
        if diff.err is not None and diff.err < e:
            return False  # not determined to that precision
        return all(i >= e for i, _ in diff.terms)

    def __repr__(self) -> str:
        body = " + ".join(
            f"{coeff}*p^{i}*X^{j}" for (i, j), coeff in sorted(self.terms.items())
        )
        tail = "" if self.err is None else f" + O(p^{self.err})"
        return f"PadicForm({body or '0'}{tail})"


def _poly_at_p_minus_1(poly: NPolynomial) -> PadicForm:
    """Exact expansion of poly(p - 1) as a polynomial in p."""
    in_p = poly.compose(NPolynomial((-1, 1)))
    return PadicForm({(i, 0): c for i, c in enumerate(in_p.coeffs)})


def _symbol_congruences() -> dict[Composition, PadicForm]:
    table = {
        Composition((1,)): PadicForm({(2, 1): 2}, err=4),
        Composition((2,)): PadicForm({(1, 1): -4}, err=3),
        Composition((3,)): PadicForm({}, err=2),
        Composition((1, 1)): PadicForm({(1, 1): 2}, err=3),
        Composition((1, 1, 1)): PadicForm({}, err=2),
        Composition((1, 2)): PadicForm({(0, 1): -6}, err=2),
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

    claim = next(c for c in SUM_CLAIMS if c.target == tuple(lam))
    if sum(lam) > 3:
        raise ValueError("cross-derivation table only covers weight <= 3")
    symbols = _symbol_congruences()
    blocks = [Composition((1,) * part) for part in lam]
    linear = sum_product(blocks).linearize()
    total = PadicForm({})
    for mono in linear.terms():
        coeff = _poly_at_p_minus_1(mono.coeff)
        if mono.factors:
            total = total + coeff * symbols[mono.factors[0]]
        else:
            total = total + coeff
    rhs = PadicForm({key: coeff for key, coeff in claim.rhs_terms})
    return total.congruent_to(rhs, claim.exponent)
