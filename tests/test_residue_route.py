"""The residue-only per-prime route against the exact route it replaces.

Per-prime checks use X = bernoulli_invariant(p) only modulo p^2, read off
power sums by Faulhaber's formula.  The exact Bernoulli numbers stay as the
oracle; both routes are compared here for every prime 7 <= p <= 400.  The
per-prime context's H_k(s) rows are checked against the exact rows.
"""

import importlib
import sys
import threading
from fractions import Fraction
from math import comb

import pytest

from mhs import cli, congruences
from mhs.bernoulli import bernoulli, bernoulli_invariant, bernoulli_invariant_mod
from mhs.binomial_sums import (
    binomial_power_sum_closed_form,
    central_binomial_sum_exact,
    cai_granville_suite,
    central_binomial_sum_mod,
    corollary_suite,
    theorem_suite,
)
from mhs.congruences import (
    BASE_CLAIMS,
    SUM_CLAIMS,
    base_congruence_suite,
    homogeneous_product_sum_mod,
    mhs_mod,
    prime_context,
    sum_congruence_suite,
)
from mhs.core import eval_mhs, mhs_prefix_values, mhs_row
from mhs.residues import batch_inverse, primes_in_range, reduce_mod

PRIMES = primes_in_range(7, 400)


def _convolution_bernoulli(mmax: int) -> list[Fraction]:
    """B_0..B_mmax from sum_{j<=m} C(m+1, j) B_j = 0, the reference recurrence."""
    values = [Fraction(1)]
    for m in range(1, mmax + 1):
        total = sum(comb(m + 1, j) * values[j] for j in range(m) if values[j])
        values.append(-total / (m + 1))
    return values


def test_bernoulli_matches_convolution_recurrence():
    reference = _convolution_bernoulli(400)
    for m, expected in enumerate(reference):
        if m == 1:
            continue  # the recurrence gives -1/2, and so does bernoulli(1)
        assert bernoulli(m) == expected, m
    assert bernoulli(1) == reference[1] == Fraction(-1, 2)


def test_bernoulli_grows_its_table_geometrically(monkeypatch):
    module = importlib.import_module("mhs.bernoulli")
    expected = {m: bernoulli(m) for m in range(2, 801, 2)}
    sizes = []

    def recording(n, real=module._tangent_numbers):
        sizes.append(n)
        return real(n)

    monkeypatch.setattr(module, "_cache", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setattr(module, "_tangent_numbers", recording)
    for m in range(2, 801, 2):
        assert bernoulli(m) == expected[m], m
    # one table per call would cost sum_{n<=400} n^2, about 133 * 400^2
    assert sum(n * n for n in sizes) <= 8 * 400**2, sizes


def test_invariant_mod_matches_exact():
    for p in PRIMES:
        assert bernoulli_invariant_mod(p) == reduce_mod(bernoulli_invariant(p), p, 2).value, p


def _exact_rhs(claim, p: int) -> Fraction:
    x = bernoulli_invariant(p)
    return sum(
        (Fraction(coeff) * p**i * x**j for (i, j), coeff in claim.rhs_terms),
        Fraction(0),
    )


def test_claim_rhs_matches_exact():
    for p in PRIMES:
        for claim in BASE_CLAIMS + SUM_CLAIMS:
            exact = reduce_mod(_exact_rhs(claim, p), p, claim.exponent).value
            assert claim.rhs_value(p) == exact, (claim.claim_id, p)


def test_closed_form_matches_exact():
    for p in PRIMES:
        x = bernoulli_invariant(p)
        for a in range(-6, 7):
            exact = Fraction((a - 1) * p, a * p - 1) * (
                1 + Fraction(a * (a + 1) * (3 * a - 2), 6) * p**3 * x
            )
            assert binomial_power_sum_closed_form(a, p) == reduce_mod(exact, p, 6), (a, p)


def test_closed_form_refuses_precision_beyond_p6():
    with pytest.raises(ValueError):
        binomial_power_sum_closed_form(2, 7, e=7)


def test_streamed_central_binomial_matches_exact():
    for p in PRIMES:
        lhs, rhs = central_binomial_sum_exact(p)
        expected = (reduce_mod(lhs, p, 4).value, reduce_mod(rhs, p, 4).value)
        assert central_binomial_sum_mod(p) == expected, p


def test_verify_never_builds_exact_bernoulli(monkeypatch, capsys):
    module = importlib.import_module("mhs.bernoulli")
    exact = (module.bernoulli, module.bernoulli_invariant)

    def refuse(*args):
        raise AssertionError("exact Bernoulli route reached from verify")

    for name, mod in list(sys.modules.items()):
        if name == "mhs" or name.startswith("mhs."):
            for attr, value in list(vars(mod).items()):
                if any(value is fn for fn in exact):
                    monkeypatch.setattr(mod, attr, refuse)
    code = cli.main(["verify", "--suite", "all", "--pmin", "7", "--pmax", "31"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"


# ---------------------------------------------------------------------------
# The per-prime context: rows H_k(s) mod p^max(e, 6), shared by every check
# at p and read mod p^e, against the exact rows over Q.
# ---------------------------------------------------------------------------

TABLE_PRIMES = [7, 11, 13, 31]
SHAPES = [(), (2, 1)] + [claim.target for claim in BASE_CLAIMS]
PARTITIONS = [claim.target for claim in SUM_CLAIMS]


def _exact_tables(p: int):
    """H_{p-1}(s) for each shape, and each partition's sum of products, over Q."""
    mhs = {s: eval_mhs(p - 1, s) for s in SHAPES}
    homogeneous = {d: mhs_prefix_values(p - 1, (1,) * d) for d in range(1, 6)}
    sums = {}
    for lam in PARTITIONS:
        total = Fraction(0)
        for k in range(1, p):
            term = Fraction(1)
            for part in lam:
                term *= homogeneous[part][k]
            total += term
        sums[lam] = total
    return mhs, sums


def _interleaved_schedule():
    """(p, e) visits alternating primes p, q, p with e ascending, then descending."""
    exponents = list(range(1, 9)) + list(range(8, 0, -1))
    for p, q in zip(TABLE_PRIMES, TABLE_PRIMES[1:] + TABLE_PRIMES[:1]):
        for e in exponents:
            for prime in (p, q, p):
                yield prime, e


def test_residue_table_matches_exact_interleaved():
    exact = {p: _exact_tables(p) for p in TABLE_PRIMES}
    for p, e in _interleaved_schedule():
        prime_context(p, e).product_sums.clear()  # recompute from the rows
        mhs, sums = exact[p]
        for s in SHAPES:
            assert mhs_mod(s, p, e) == reduce_mod(mhs[s], p, e), (s, p, e)
        for lam in PARTITIONS:
            expected = reduce_mod(sums[lam], p, e).value
            assert homogeneous_product_sum_mod(lam, p, e) == expected, (lam, p, e)


@pytest.mark.parametrize("e", [1, 3, 6, 8])
def test_residue_row_refuses_index_divisible_by_p(e):
    p = 7
    mhs_mod((2, 1), p, e)  # the inverse-power tables now cover j < p
    context = prime_context(p, e)
    for s, n in [((1,), p), ((2, 1), p + 3), ((3,), 2 * p)]:
        with pytest.raises(ValueError):
            mhs_row(s, n, {}, context)
    assert mhs_mod((1,), p, e) == reduce_mod(eval_mhs(p - 1, (1,)), p, e)


def test_threads_share_residue_table_safely():
    """Threads switching primes, each through its own context, all read correct values."""
    primes = [7, 11, 13, 17, 19]
    exact = {p: {s: eval_mhs(p - 1, s) for s in SHAPES} for p in primes}
    work = [(p, s, e) for p in primes for s in SHAPES for e in (1, 4, 6)]
    sums = {p: homogeneous_product_sum_mod((2, 1), p, 6) for p in primes}
    errors = []

    def worker(offset):
        for i in range(len(work)):
            p, s, e = work[(7 * i + offset) % len(work)]
            if mhs_mod(s, p, e) != reduce_mod(exact[p][s], p, e):
                errors.append((s, p, e))
            if homogeneous_product_sum_mod((2, 1), p, 6) != sums[p]:
                errors.append(((2, 1), p, 6))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_residue_work_happens_once_per_prime(monkeypatch):
    """At one prime the four suites grow each row once and make two batch inversions."""
    p = 101
    prime_context(97)  # a context of 101 from an earlier test is replaced
    inversions = []
    grown = []

    def counting_inverse(values, mod):
        inversions.append(mod)
        return batch_inverse(values, mod)

    def counting_inverse_powers(context, s, real=congruences.PrimeContext.inverse_powers):
        grown.append(s)  # mhs_row asks once per prefix row it grows
        return real(context, s)

    monkeypatch.setattr(congruences, "batch_inverse", counting_inverse)
    monkeypatch.setattr(congruences.PrimeContext, "inverse_powers", counting_inverse_powers)
    results = (
        sum_congruence_suite(p)
        + base_congruence_suite(p)
        + theorem_suite(p)
        + cai_granville_suite(p)
        + corollary_suite(p)
    )
    assert results and all(r.passed for r in results)

    compositions = [claim.target for claim in BASE_CLAIMS] + [(1,) * d for d in range(1, 6)]
    prefixes = {s[:d] for s in compositions for d in range(1, len(s) + 1)}
    exponents = {part for s in compositions for part in s}
    # one row growth per prefix, one inverse-power table per distinct part
    assert len(grown) <= len(prefixes)
    assert sorted(prime_context(p).powers) == sorted(exponents)
    # 1/j for the rows, the units and the central-binomial sum, then the
    # units' inverses: once each for every e at p
    assert inversions == [p**6, p**6]
