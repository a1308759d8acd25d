import threading
from fractions import Fraction
from math import comb, lcm

import pytest

from mhs import binomial_sums
from mhs.binomial_sums import (
    alternating_power_sum,
    binomial_power_sum,
    binomial_power_sum_closed_form,
    binomial_power_sum_via_mhs,
    cai_granville_holds,
    central_binomial_sum_check,
    central_binomial_sum_exact,
    generalized_binomial,
    signed_binomial_power,
    staver_claims,
    staver_identity_holds,
    wolstenholme_holds,
)
from mhs.residues import primes_in_range


def test_generalized_binomial():
    assert generalized_binomial(5, 2) == 10
    assert generalized_binomial(3, 5) == 0
    assert generalized_binomial(-1, 3) == -1
    assert generalized_binomial(-2, 2) == 3
    assert generalized_binomial(-2, 3) == -4
    assert generalized_binomial(0, 0) == 1


def test_signed_binomial_power_examples():
    assert signed_binomial_power(0, 5, 7).value == 1
    assert signed_binomial_power(1, 1, 7).value == (1 - 7) % 7**6
    cubed = signed_binomial_power(3, -2, 7)
    straight = signed_binomial_power(3, 1, 7)
    assert cubed.value * straight.value**2 % 7**6 == 1


@pytest.mark.parametrize("p", [7, 11, 13])
def test_signed_binomial_matches_factorial_route(p):
    for k in range(p):
        for a in (-2, -1, 1, 2, 3):
            expected = pow((-1) ** k * comb(p - 1, k), a, p**6)
            assert signed_binomial_power(k, a, p).value == expected


def test_power_sum_anchors():
    for p in primes_in_range(7, 31):
        assert binomial_power_sum(0, p).value == p
        assert binomial_power_sum(1, p).value == 0
        assert binomial_power_sum_closed_form(0, p).value == p
        assert binomial_power_sum_closed_form(1, p).value == 0


@pytest.mark.parametrize("p", [7, 11, 13])
def test_power_sum_closed_form_small_grid(p):
    for a in range(-4, 5):
        assert binomial_power_sum(a, p) == binomial_power_sum_closed_form(a, p)


@pytest.mark.parametrize("p", [7, 11])
def test_power_sum_expansion_route_agrees(p):
    for a in (-2, -1, 0, 2, 3):
        assert binomial_power_sum_via_mhs(a, p) == binomial_power_sum(a, p)


def test_alternating_power_sum_closed_cases():
    for n in range(2, 12):
        assert alternating_power_sum(n, 0) == n
        assert alternating_power_sum(n, 1) == 0
    # a = -1 gives rationals: 1/C(2,0) - 1/C(2,1) + 1/C(2,2)
    value = alternating_power_sum(3, -1)
    assert isinstance(value, Fraction)
    assert value == 1 - Fraction(1, 2) + 1


def test_staver_small_cases():
    assert staver_identity_holds(1)
    assert staver_identity_holds(2)
    assert staver_identity_holds(6)
    # the n = 6 sum itself
    lhs = sum(Fraction(comb(2 * k, k), k) for k in range(1, 7))
    assert lhs == Fraction(7007, 30)


def test_staver_claim_on_integers_matches_the_fraction_oracle():
    # in reverse, so that no claim leans on one checked before it
    for claim in reversed(staver_claims(150)):
        assert claim.check().passed is staver_identity_holds(claim.n) is True, claim.n


def test_staver_claims_carry_lcm_central_binomial_and_left_side():
    claims = staver_claims(200)
    assert [claim.n for claim in claims] == list(range(1, 201))
    left = Fraction(0)
    for claim in claims:
        n = claim.n
        left += Fraction(comb(2 * n, n), n)
        assert claim.lcm == lcm(*range(1, n + 1)), n
        assert claim.central == comb(2 * n, n), n
        assert Fraction(claim.left, claim.lcm) == left, n


def test_staver_claim_fails_on_a_perturbed_left_side():
    claim = staver_claims(10)[-1]
    assert claim.check().passed
    assert not claim._replace(left=claim.left + 1).check().passed
    assert not claim._replace(central=claim.central + 1).check().passed


def test_wolstenholme_examples():
    assert comb(13, 6) == 1716 == 5 * 343 + 1
    assert wolstenholme_holds(5)
    assert wolstenholme_holds(7)
    assert wolstenholme_holds(11)
    with pytest.raises(ValueError):
        wolstenholme_holds(4)


def test_central_binomial_witnesses_at_7():
    lhs, rhs = central_binomial_sum_exact(7)
    assert lhs == Fraction(7007, 30)
    assert lhs - rhs == Fraction(7**4 * 19, 198)
    assert central_binomial_sum_check(7)
    assert central_binomial_sum_check(11)
    with pytest.raises(ValueError):
        central_binomial_sum_check(5)


def test_cai_granville_small():
    for p in (7, 11, 13):
        for a in (1, 2, 3):
            assert cai_granville_holds(a, p)


def test_moments_formed_once_per_prime(monkeypatch):
    from mhs import binomial_sums, congruences

    formed = []

    class RecordingMoments(dict):
        def __setitem__(self, p, moments):
            formed.append(p)
            super().__setitem__(p, moments)

    class Recording(congruences.PrimeContext):
        def __init__(self, primes):
            super().__init__(primes)
            self.moments = RecordingMoments()

    p = 17
    monkeypatch.setattr(congruences, "PrimeContext", Recording)
    monkeypatch.setattr(congruences, "_local", threading.local())  # no context holding 17 is held
    results = binomial_sums.theorem_suite(p)
    assert len(results) == 28 and all(r.passed for r in results)
    # one power pass forms p's moments, from which every a in [-6, 6] and
    # the anchors read their sums
    assert formed == [p]
    # each suite call checks p from a context of its own, as a sweep's
    # chunk of one prime is checked
    results = binomial_sums.cai_granville_suite(p)
    assert len(results) == 3 and all(r.passed for r in results)
    assert formed == [p, p]
    # the public functions share this thread's context of p: one pass for both
    assert binomial_power_sum(2, p, e=4) == binomial_sums.PResidue(
        sum(pow(comb(p - 1, k), 2, p**4) for k in range(p)), p, 4
    )
    cubes = sum((-1) ** k * comb(p - 1, k) ** 3 for k in range(p))
    assert binomial_power_sum(3, p).value == cubes % p**6
    assert formed == [p, p, p]
