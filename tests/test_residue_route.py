"""The residue-only per-prime route against the exact route it replaces.

Per-prime checks use X = bernoulli_invariant(p) only modulo p^2, read off
power sums by Faulhaber's formula.  The exact Bernoulli numbers stay as the
oracle; both routes are compared here for every prime 7 <= p <= 400.
"""

import importlib
import sys
from fractions import Fraction
from math import comb

import pytest

from mhs import cli
from mhs.bernoulli import bernoulli, bernoulli_invariant, bernoulli_invariant_mod
from mhs.binomial_sums import (
    binomial_power_sum_closed_form,
    central_binomial_sum_exact,
    central_binomial_sum_mod,
)
from mhs.congruences import BASE_CLAIMS, SUM_CLAIMS
from mhs.residues import primes_in_range, reduce_mod

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
