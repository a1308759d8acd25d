"""The verify suites as one registry of claims, and one chunk-major runner.

A claim has a ``claim_id`` and a ``check`` returning a CheckResult: per-prime
claims are checked at each prime by ``report.check_at``, the others once.
Checking every claim at each prime of a chunk before the next chunk builds
each chunk's tables once, in passes that serve all of its primes.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

from . import SUITE_NAMES
from . import binomial_sums as bs
from .algebra import expr_equal
from .congruences import BASE_CLAIMS, SUM_CLAIMS, check_chunk, prime_chunks
from .report import CheckResult
from .residues import primes_in_range
from .summation import IdentityRecord, known_identities, partial_sum_oracle, sum_product

__all__ = ["SUITES", "IdentityClaim", "Suite", "run", "select"]


class IdentityClaim(NamedTuple):
    """A known identity, derived again and checked against partial sums to nmax."""

    record: IdentityRecord
    nmax: int

    @property
    def claim_id(self) -> str:
        return f"identity:{self.record.name}"

    def check(self) -> CheckResult:
        factors, rhs = self.record.factors, self.record.rhs
        derived = sum_product(factors)
        holds = expr_equal(derived, rhs) and partial_sum_oracle(factors, derived, self.nmax)
        return CheckResult(self.claim_id, None, None, str(derived), str(rhs), holds)


class Suite(NamedTuple):
    """A suite's claims, built from the range arguments, in output order."""

    name: str
    reads: str  # the ranges its claims run over: "p" primes, "a" amin..amax, "n" 1..nmax
    claims: Callable  # claims(ranges), in order; ranges has amin, amax and nmax


SUITES: tuple[Suite, ...] = (
    Suite("identities", "n", lambda r: [IdentityClaim(x, r.nmax) for x in known_identities()]),
    Suite("congruences", "p", lambda r: BASE_CLAIMS + SUM_CLAIMS),
    Suite("theorem", "pa", lambda r: bs.theorem_claims(r.amin, r.amax) + bs.CAI_GRANVILLE_CLAIMS),
    Suite("corollary", "p", lambda r: bs.COROLLARY_CLAIMS),
    Suite("staver", "n", lambda r: tuple(map(bs.StaverClaim, range(1, r.nmax + 1)))),
)
if tuple(s.name for s in SUITES) != SUITE_NAMES:  # the CLI's --suite choices
    raise RuntimeError(f"registry suites {[s.name for s in SUITES]} differ from SUITE_NAMES")


def select(suite: str, claim_ids, ranges) -> tuple[list[tuple[Suite, tuple]], list[int]]:
    """The (suite, claims) pairs of a run, in registry order, and its primes (if it reads p).

    ``suite`` may be "all".  Given ``claim_ids``, each suite keeps only those
    claims and is dropped if none is left; an id that no selected suite owns
    raises ValueError.  So does an empty range that a selected suite reads,
    and a prime window with pmin at most 5 or above pmax.
    """
    chosen = [(s, s.claims(ranges)) for s in SUITES if suite in ("all", s.name)]
    if claim_ids:
        chosen = [(s, tuple(c for c in claims if c.claim_id in claim_ids)) for s, claims in chosen]
        missing = set(claim_ids) - {c.claim_id for _, claims in chosen for c in claims}
        if missing:
            raise ValueError(f"unknown claim ids: {sorted(missing)}")
        chosen = [(s, claims) for s, claims in chosen if claims]
    reads, primes = "".join(s.reads for s, _ in chosen), []
    if "p" in reads:
        if ranges.pmin <= 5:
            raise ValueError("pmin must be > 5")
        if ranges.pmin > ranges.pmax:
            raise ValueError("pmin must not exceed pmax")
        primes = primes_in_range(ranges.pmin, ranges.pmax)
        if not primes:
            raise ValueError(f"no primes in [{ranges.pmin}, {ranges.pmax}]")
    if "n" in reads and ranges.nmax < 1:
        raise ValueError("--nmax must be >= 1")
    if "a" in reads and ranges.amin > ranges.amax:
        raise ValueError("--amin must not exceed --amax")
    return chosen, primes


def run(selection: list[tuple[Suite, tuple]], primes: list[int], fan_out) -> list[CheckResult]:
    """Check a selection over the primes, both as ``select`` made them; results suite by suite.

    The primes go in ascending chunks (``congruences.prime_chunks``), and
    ``congruences.check_chunk`` checks every claim at each prime of a chunk
    from one context, whose passes form the sums of all its primes at once.
    ``fan_out(worker, chunks)`` maps the worker over the chunks, in a process
    pool or not, and concatenates the lists it returns in chunk order, which
    is prime order.
    """
    per_prime = tuple(c for s, claims in selection if "p" in s.reads for c in claims)
    suite_of = [i for i, (s, claims) in enumerate(selection) if "p" in s.reads for _ in claims]
    by_suite = [[] if "p" in s.reads else [c.check() for c in claims] for s, claims in selection]
    chunks = prime_chunks(primes)  # no primes: no p suite
    checked = fan_out(functools.partial(check_chunk, per_prime), chunks)
    for k, result in enumerate(checked):  # the list of each prime follows per_prime
        by_suite[suite_of[k % len(per_prime)]].append(result)
    return [result for results in by_suite for result in results]
