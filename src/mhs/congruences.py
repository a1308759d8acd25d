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
which this thread keeps until a prime outside it is asked for.  A context
holds an ascending chunk of primes (a sweep's primes, cut by prime_chunks;
one prime for the public functions), and forms each sum for all of them in
one pass over k in blocks of bounded length, modulo the product of p^6
over the primes the pass has yet to read.  Its two passes share no table:
each inverts its own blocks.  A separate symbolic
cross-derivation re-obtains the weight <= 3 sum rows by substituting the
base congruences into the closed-form summation identities, with explicit
error-term bookkeeping.
"""

from __future__ import annotations

import operator
import threading
from fractions import Fraction
from itertools import accumulate, repeat
from math import inf, prod
from typing import Collection, Iterable, NamedTuple

from .algebra import NPolynomial
from .bernoulli import bernoulli_invariant_mod
from .core import Composition
from .partitions import arrangement_count, partitions_of
from .report import CheckResult, check_at, check_residues
from .residues import PResidue, batch_inverse, require_admissible, require_exponent, require_prime

__all__ = [
    "BASE_CLAIMS",
    "SUM_CLAIMS",
    "CongruenceClaim",
    "PrimeContext",
    "base_congruence_suite",
    "check_chunk",
    "cross_derivation_check",
    "homogeneous_product_sum_mod",
    "mhs_mod",
    "prime_chunks",
    "prime_context",
    "sum_congruence_suite",
]


# Entries of k per block.  A pass over k holds one block's tables at a time,
# so a context's memory is bounded by the block, not by p; a prime below it
# is one block in each pass.
_BLOCK = 1 << 14
# Bits of a chunk's modulus prod p^6.  A sweep checks its primes in chunks
# that stay within it.  A chunk's primes share the interpreter's cost per
# entry, while the cost of the arithmetic grows with the modulus: of 128 to
# 512 bits, 256 ran the passes fastest from p = 37 to p = 10^5.
_CHUNK_BITS = 256
# The partitions of weight <= 5, which a product-sum miss among them sums
# together: the sum rows and the p^6 expansion read exactly those.  By weight
# and then by length.
PARTITIONS = tuple(lam for j in range(1, 6) for lam in partitions_of(j))


def _half_units(inverses: list, lift: int, carry: int, mod: int) -> list:
    """u_k = (-1)^k C(p-1, k) = u_(k-1) * (1 - P/k) over a block's k, from carry = u_(start-1)."""
    u, units = carry, []
    for inverse in inverses:
        u = u * (1 - lift * inverse) % mod
        units.append(u)
    return units


class PrimeContext:
    """The residue sums of an ascending chunk of primes, each p modulo p^6.

    Every check at p modulo p^e, e <= 6, reads p's values through
    Z/p^6 -> Z/p^e.  Each value is a sum over k < p (k <= (p-1)/2 for the
    power sums), and a pass forms it for every prime of the chunk at once:
    it walks k once, up to the largest prime's range, in Z/M with the CRT
    lift P = p (mod p^6) in place of p, and reads p's sums modulo p^6 at
    k = p - 1 (k = (p-1)/2 in the power pass).  The passes run in blocks of
    at most _BLOCK entries, each modulo the primes not yet read (see
    :meth:`_blocks`), and carry from block to block only the last entry of
    each running row and its sums.  A chunk of one prime p works modulo p^6
    with P = p.  X and the expansion moments are formed per prime, once
    each.  :meth:`fill` runs two passes, which share no table.  Each forms
    what it is asked and nothing else, in a chunk as at one prime:

    * harmonic: any of the groups "mhs" (H_{p-1}(s) of the base claims),
      "sum" (the product sums of every partition of weight <= 5) and
      "binomials", which share the rows H_k({1}^j) and k^(-s);
    * powers: the moments c_r = sum_k (u_k - 1)^r, r < 6, of the units
      u_k = (-1)^k C(p-1, k), which a claim weights with its own row C(a, r).
    """

    def __init__(self, primes: tuple[int, ...]):
        if list(primes) != sorted(set(primes)):  # the passes read the primes in this order
            raise ValueError(f"a chunk's primes must ascend, got {primes}")
        self.primes = primes
        # per prime: composition -> H_{p-1}(s), the empty one 1; partition ->
        # its sum, the empty one p - 1 ones
        self.mhs_sums: dict = {p: {(): 1} for p in primes}
        self.product_sums: dict = {p: {(): p - 1} for p in primes}
        self.moments: dict = {}  # p -> (c_0, ..., c_5), c_r = sum_k (u_k - 1)^r
        self.binomial_values: dict = {}  # p -> (F_1, F_2, central)
        self.invariants: dict = {}  # p -> X mod p^2
        self.expansions: dict = {}  # p -> the expansion moments
        mod = self.mod = prod(p**6 for p in primes)  # M; the CRT lift P is p mod each p^6
        self.lift = sum(p * (m := mod // p**6) * pow(m, -1, p**6) for p in primes) % mod

    def _blocks(self, reads: dict):
        """(start, inverses, mod, lift, read) for the blocks of a pass over k = 1..max(reads).

        ``reads`` maps each k at which the pass reads a prime's sums to that
        prime, in ascending order, and ``read`` is the prime whose sums the
        block completes, or None.  A block ends at each read and after
        _BLOCK entries.  inverses = [1/k mod M] and lift = P for M = prod
        p^6 over the primes not yet read: a prime leaves M right after
        the block that reads it, so every k of a block is a unit.  Each
        block is inverted for the pass that walks it, and for no other.
        """
        mod, lift, start = self.mod, self.lift, 1
        for end, p in reads.items():
            while start <= end:
                stop = min(start + _BLOCK, end + 1)
                inverses = batch_inverse(range(start, stop), mod)
                yield start, inverses, mod, lift, p if stop > end else None
                start = stop
            mod //= p**6
            lift %= mod

    def mhs(self, s: tuple, p: int) -> int:
        """H_{p-1}(s); the empty composition gives 1.

        A miss on a base claim's composition fills the group "mhs"; any other
        miss forms s alone.
        """
        sums = self.mhs_sums[p]
        if s in _BASE_TARGETS and s not in sums:
            self.fill(p, ["mhs"])
        elif s not in sums:
            self._sum_harmonic([s], [], False)
        return sums[s]

    def invariant(self, p: int) -> int:
        """X = bernoulli_invariant(p) modulo p^2."""
        if p not in self.invariants:
            self.invariants[p] = bernoulli_invariant_mod(p)
        return self.invariants[p]

    def product_sum(self, lam: tuple[int, ...], p: int) -> int:
        """sum_{k=1}^{p-1} prod_i H_k({1}^lam_i), for parts lam_i >= 1 in any order.

        A miss of weight at most 5 fills the group "sum", every partition of
        weight at most 5; a heavier miss sums lam alone.  A part below 1
        raises ValueError.
        """
        sums = self.product_sums[p]
        if lam not in sums:
            lam = tuple(sorted(lam, reverse=True))  # as the pass keys partitions
            if lam not in sums:
                if lam[-1] < 1:  # the pass forms no such partition
                    raise ValueError(f"partition parts must be >= 1, got {lam[-1]}")
                if lam in PARTITIONS:
                    self.fill(p, ["sum"])
                else:
                    self._sum_harmonic([], [lam], False)
        return sums[lam]

    def binomials(self, p: int) -> tuple[int, int, int]:
        """(F_1, F_2, sum_{k<p} C(2k,k)/k) modulo p^6, F_c = prod_{m<p} (1 + cp/m)."""
        if p not in self.binomial_values:
            self.fill(p, ["binomials"])
        return self.binomial_values[p]

    def fill(self, p: int, groups: Collection[str]) -> None:
        """Form what p misses of the ``groups`` ("mhs", "sum", "binomials", "powers"), no other.

        At most one harmonic and one power pass run, each forming its sums
        at every prime of the chunk.
        """
        sums, products = self.mhs_sums[p], self.product_sums[p]
        compositions = [s for s in _BASE_TARGETS if s not in sums] if "mhs" in groups else []
        partitions = [x for x in PARTITIONS if x not in products] if "sum" in groups else []
        binomials = "binomials" in groups and p not in self.binomial_values
        if compositions or partitions or binomials:
            self._sum_harmonic(compositions, partitions, binomials)
        if "powers" in groups and p not in self.moments:
            self._sum_powers()

    def _sum_harmonic(self, compositions: list, partitions: list, binomials: bool) -> None:
        """One pass forming the H_{p-1}(s), the product sums and, if asked, the binomials.

        In each block the pass runs the rows [H_(start-1)(r), ..., H_(stop-1)(r)]
        of every r a value reads: the prefixes s[:-1] and the rows H({1}^j)
        up to the largest part (up to j = 4 for F_c), with their own
        prefixes.  A row grows from its prefix row times the table k^(-r_d),
        summed from its last entry in the block before: whole-row passes with
        one reduction per entry.  H_{p-1}(s) is the last entry of the row of s
        when the pass runs one, else the sum of the dot products of the row of
        s[:-1] with k^(-s_d).  A partition sums its largest part's row times
        the row of the rest, which is formed only for a rest of a longer
        wanted partition.  Entry 0 of a row is k = start - 1, which the block
        before summed.  A block ending at k = p - 1 completes p's sums.  F_c
        needs no row of its own: prod_{m<p} (1 + x/m) = sum_j x^j H_{p-1}({1}^j),
        whose terms j >= 5 vanish mod p^6 at x = cp, as H_{p-1}({1}^j) is 0
        for j >= p and 0 mod p for 0 < j < p - 1.
        C(2k, k) = C(2k-2, k-1) * 2(2k-1)/k and its sum over 1/k run k by k.
        """
        depth = max([lam[0] for lam in partitions] + [4] * binomials, default=0)
        tips = {s[:-1] for s in compositions} | {(1,) * depth}
        carries = {r[:d]: 0 for r in tips for d in range(len(r) + 1)}  # H_(start-1)(r)
        carries[()] = 1
        grown = sorted(carries, key=len)[1:]  # prefixes first; the empty row is all ones
        dots = dict.fromkeys((s for s in compositions if s not in carries), 0)
        totals = dict.fromkeys(partitions, 0)
        rests = sorted({lam[d:] for lam in partitions for d in range(1, len(lam) - 1)}, key=len)
        reads = {p - 1: p for p in self.primes}
        central, quotients = 1, 0  # C(2k, k) and sum_k C(2k, k)/k

        def power(t: int) -> list:  # k^-t per k, on first use: tables built ahead raise peak RSS
            while len(powers) <= t:
                powers.append([x * y % mod for x, y in zip(powers[-1], powers[1])])
            return powers[t]

        for start, inverses, mod, _, p in self._blocks(reads):
            powers = [None, inverses]
            rows = {(): [1] * (len(inverses) + 1)}
            for r in grown:
                terms = map(operator.mul, rows[r[:-1]], power(r[-1]))
                sums = accumulate(terms, initial=carries[r])  # unreduced
                row = rows[r] = list(map(operator.mod, sums, repeat(mod)))
                carries[r] = row[-1]
            for s in dots:
                dots[s] += sum(map(operator.mul, rows[s[:-1]], power(s[-1])))
            products = {(j,): rows[(1,) * j] for j in range(1, depth + 1)}
            for lam in rests:  # shortest first
                first, rest = products[lam[:1]], products[lam[1:]]
                products[lam] = [x * y % mod for x, y in zip(first, rest)]
            for lam in totals:
                row = products.get(lam)
                if row is not None:
                    totals[lam] += sum(row) - row[0]
                else:
                    first, rest = products[lam[:1]], products[lam[1:]]
                    totals[lam] += sum(map(operator.mul, first, rest)) - first[0] * rest[0]
            if binomials:
                for k, inverse in enumerate(inverses, start):
                    central = central * (4 * k - 2) * inverse % mod
                    quotients += central * inverse
            if p is not None:
                m = p**6
                for s in compositions:
                    self.mhs_sums[p][s] = (carries[s] if s in carries else dots[s]) % m
                for lam, total in totals.items():
                    self.product_sums[p][lam] = total % m
                if binomials:
                    ones = [carries[(1,) * j] * p**j for j in range(5)]  # F_1's terms
                    twice = sum(x << j for j, x in enumerate(ones))  # F_2's: times 2^j
                    self.binomial_values[p] = sum(ones) % m, twice % m, quotients % m

    def expansion_moments(self, p: int) -> tuple:
        """The moments c_r = sum_{k<p} (u_k - 1)^r modulo p^6, r < 6, from the product sums.

        u_k - 1 = sum_{j<=5} (-p)^j H_k({1}^j) modulo p^6, so c_r sums the
        weights (-p)^|lam| * S(lam) of the lam in PARTITIONS with r parts,
        each times its arrangements; c_0 = p counts the k.
        """
        if p not in self.expansions:
            moments = [p, 0, 0, 0, 0, 0]
            for lam in PARTITIONS:
                weight = (-p) ** sum(lam) * self.product_sum(lam, p)
                moments[len(lam)] += arrangement_count(lam) * weight
            self.expansions[p] = tuple(c % p**6 for c in moments)
        return self.expansions[p]

    def unit_moments(self, p: int) -> tuple:
        """The moments c_r = sum_{k<p} (u_k - 1)^r modulo p^6, r < 6; a miss fills "powers"."""
        if p not in self.moments:
            self.fill(p, ["powers"])
        return self.moments[p]

    def _sum_powers(self) -> None:
        """One pass forming the moments c_r = sum_{k<p} x_k^r, r < 6, of x_k = u_k - 1.

        The rows x, x^2, ..., x^5 run over the half k <= m = (p-1)/2,
        as u_(p-1-k) = u_k for an odd p: c_r is twice the half's sum less
        x_m^r, and a block ending at k = m completes p's moments.  The units
        come block by block (see :func:`_half_units`), each from the last
        one's u.  c_0 counts them, so its value p checks the half's
        bookkeeping.  p = 2 is refused with ValueError.
        """
        if self.primes[0] == 2:
            raise ValueError("the power sums need an odd prime, got p = 2")
        totals = [1] + [0] * 5  # k = 0: x_0^0 = 1
        reads = {(p - 1) // 2: p for p in self.primes}
        carry = 1  # u_0, the carry into the first block
        for _, inverses, mod, lift, p in self._blocks(reads):
            units = _half_units(inverses, lift, carry, mod)
            carry = units[-1]
            row = bases = [u - 1 for u in units]
            totals[0] += len(bases)
            for r in range(1, 6):
                if r > 1:
                    row = [x * b % mod for x, b in zip(row, bases)]
                totals[r] += sum(row)
            if p is not None:
                m, x_m = p**6, carry - 1
                self.moments[p] = tuple((2 * t - pow(x_m, r, m)) % m for r, t in enumerate(totals))


def prime_chunks(primes: Iterable[int]) -> list[tuple[int, ...]]:
    """The primes, in order, cut into ascending chunks with prod p^6 within _CHUNK_BITS bits.

    A prime that is not above the one before starts a new chunk, and so
    does a prime whose p^6 alone passes the budget.
    """
    chunks, mod = [], 1
    for p in primes:
        mod *= p**6
        if not chunks or p <= chunks[-1][-1] or mod.bit_length() > _CHUNK_BITS:
            chunks.append(())
            mod = p**6
        chunks[-1] += (p,)
    return chunks


# One context per thread, replaced when a prime outside it is asked for: a
# chunk-major sweep builds each chunk's state once and holds one chunk's at a
# time, and no thread reads another's, so nothing needs a lock.
_local = threading.local()


def prime_context(p: int, e: int = 6) -> PrimeContext:
    """This thread's context holding p modulo p^6, or a new context of p alone.

    The held context is kept whenever it holds p, so a hit computes no power
    of p; every check at p asks for it at least once.  An exponent below 1
    or above 6 (the context holds p^6) is refused before any work, and so is
    a p that is not prime when a new context would be built.
    """
    require_exponent(e)
    if e > 6:
        raise ValueError(f"e must be <= 6, got {e}")
    held = getattr(_local, "held", None)
    if held is None or p not in held.mhs_sums:
        require_prime(p)
        held = _local.held = PrimeContext((p,))
    return held


def check_chunk(claims, primes: tuple[int, ...]) -> list[CheckResult]:
    """``check_at`` at each prime of an ascending chunk, in order, all reading one context.

    Every prime is admitted before the context is built, since the first
    pass at any of them forms the sums of all: ``check_at`` at the first
    prime fills the context with what the claims declare, for every prime.
    """
    for p in primes:
        require_admissible(p)
    _local.held = PrimeContext(primes)
    return [result for p in primes for result in check_at(claims, p)]


def mhs_mod(s: Iterable[int], p: int, e: int = 1) -> PResidue:
    """H_{p-1}(s) in Z / p^e by streaming evaluation.

    All denominators are products of integers below p, hence units; the full
    rational value is never materialized.  The value is read from the
    context of p (see :meth:`PrimeContext.mhs`), which every check at p
    shares.
    """
    return PResidue(prime_context(p, e).mhs(tuple(Composition(s)), p), p, e)


def homogeneous_product_sum_mod(lam: tuple[int, ...], p: int, e: int) -> int:
    """sum_{k=1}^{p-1} prod_i H_k({1}^lam_i) in Z / p^e, by brute force.

    The sum is kept once per partition in the context of p and reduced mod
    p^e, so all exponents at p share it, and a miss of weight <= 5 sums
    every partition of weight <= 5 in one pass (see
    :meth:`PrimeContext.product_sum`).
    """
    return prime_context(p, e).product_sum(lam, p) % p**e


class CongruenceClaim(NamedTuple):
    """One congruence, with its right side as a polynomial in p and X."""

    claim_id: str
    kind: str  # "mhs" for H_{p-1}(s), "sum" for sum of products over k
    target: tuple[int, ...]  # composition (mhs) or partition of the weight (sum)
    rhs_terms: tuple[tuple[tuple[int, int], int], ...]  # ((p_exp, x_exp), coeff)
    exponent: int

    check = check_residues
    groups = property(lambda self: (self.kind,))  # the group of PrimeContext it reads

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
        x = prime_context(p).invariant(p)
        return sum(coeff * p**i * pow(x, j, mod) for (i, j), coeff in self.rhs_terms) % mod

    def sides(self, p: int) -> tuple[int, int]:
        """Both sides in Z / p^e, the left one read from the context of p."""
        context = prime_context(p)
        read = context.mhs if self.kind == "mhs" else context.product_sum
        lhs = read(self.target, p)
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
_BASE_TARGETS = tuple(claim.target for claim in BASE_CLAIMS)  # one harmonic pass forms them all

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
    return check_at(BASE_CLAIMS, p)


def sum_congruence_suite(p: int) -> list[CheckResult]:
    """Check every sum-of-products claim at the prime p."""
    return check_at(SUM_CLAIMS, p)


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
