"""Which p and e the suites and the residue functions admit, and what they refuse.

A suite runs at a prime p > 5 only, through the one per-prime runner
``report.check_at``.  A residue function refuses an exponent e < 1 before
any work, and a p that is not prime where a new context of p would be built;
``reduce_mod`` refuses a p that is not prime on every call.  The context of
p holds each sum modulo p^6, so the five functions that read it also refuse
e > 6 before any work; ``signed_binomial_power`` and ``reduce_mod`` read no
context and take any e >= 1.
"""

from fractions import Fraction
from math import prod

import pytest

from mhs import binomial_sums, congruences, residues
from mhs.congruences import homogeneous_product_sum_mod, mhs_mod, prime_context
from mhs.core import eval_mhs
from mhs.residues import NonPIntegralError, PResidue, reduce_mod

SUITES = [
    congruences.base_congruence_suite,
    congruences.sum_congruence_suite,
    binomial_sums.theorem_suite,
    binomial_sums.cai_granville_suite,
    binomial_sums.corollary_suite,
]


@pytest.mark.parametrize("suite", SUITES, ids=lambda suite: suite.__name__)
@pytest.mark.parametrize("p", [1, 2, 3, 5, 9])
def test_suites_admit_only_primes_above_5(suite, p):
    with pytest.raises(ValueError, match=rf"^p must be a prime > 5, got {p}$"):
        suite(p)


# Each residue function at p = 13, with the exponent e last.
WITH_EXPONENT = {
    "binomial_power_sum": lambda e: binomial_sums.binomial_power_sum(2, 13, e),
    "binomial_power_sum_via_mhs": lambda e: binomial_sums.binomial_power_sum_via_mhs(2, 13, e),
    "binomial_power_sum_closed_form": (
        lambda e: binomial_sums.binomial_power_sum_closed_form(2, 13, e)
    ),
    "signed_binomial_power": lambda e: binomial_sums.signed_binomial_power(1, 2, 13, e),
    "mhs_mod": lambda e: mhs_mod((1,), 13, e),
    "homogeneous_product_sum_mod": lambda e: homogeneous_product_sum_mod((1,), 13, e),
    "reduce_mod": lambda e: reduce_mod(Fraction(1, 2), 13, e),
}


@pytest.mark.parametrize("name", WITH_EXPONENT)
@pytest.mark.parametrize("e", [0, -1])
def test_exponents_below_1_are_refused_before_any_work(name, e):
    held = prime_context(11)
    with pytest.raises(ValueError, match=rf"^e must be >= 1, got {e}$"):
        WITH_EXPONENT[name](e)
    assert prime_context(11) is held  # no context of 13 was built


# The two functions that read no context, with their values at p = 13.
WITHOUT_CONTEXT = {
    "signed_binomial_power": lambda e: PResidue(12**2, 13, e),  # (-C(12, 1))^2
    "reduce_mod": lambda e: PResidue(pow(2, -1, 13**e), 13, e),
}


@pytest.mark.parametrize("name", WITH_EXPONENT)
@pytest.mark.parametrize("e", [7, 8])
def test_exponents_above_6_are_refused_where_a_context_is_read(name, e):
    held = prime_context(11)
    if name in WITHOUT_CONTEXT:
        assert WITH_EXPONENT[name](e) == WITHOUT_CONTEXT[name](e)
    else:
        with pytest.raises(ValueError, match=rf"^e must be <= 6, got {e}$"):
            WITH_EXPONENT[name](e)
    assert prime_context(11) is held  # no context of 13 was built


@pytest.mark.parametrize(
    "call, p",
    [
        (lambda: mhs_mod((1,), 9, 2), 9),
        (lambda: mhs_mod((1,), 1, 2), 1),
        (lambda: homogeneous_product_sum_mod((1,), 0, 2), 0),
    ],
)
def test_a_p_that_is_not_prime_builds_no_context(call, p):
    with pytest.raises(ValueError, match=rf"^p must be a prime, got {p}$"):
        call()


def test_a_held_context_is_not_tested_again(monkeypatch):
    expected = mhs_mod((1,), 101, 2)

    def refuse(n):
        raise AssertionError("primality tested on a hit")

    monkeypatch.setattr(residues, "is_prime", refuse)
    assert mhs_mod((1,), 101, 2) == expected


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("e", [1, 2, 3, 6])
def test_small_primes_keep_their_exact_values(p, e):
    for s in [(1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 1)]:
        assert mhs_mod(s, p, e) == reduce_mod(eval_mhs(p - 1, s), p, e), (s, p, e)
    for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1, 1)]:
        exact = sum(prod(eval_mhs(k, (1,) * part) for part in lam) for k in range(1, p))
        assert homogeneous_product_sum_mod(lam, p, e) == reduce_mod(exact, p, e).value, (lam, p, e)


@pytest.mark.parametrize("p", [9, 4, 1, 0, -7])
def test_reduce_mod_refuses_a_p_that_is_not_prime(p):
    for q, e in [(Fraction(1, 3), 2), (Fraction(1, 2), 1), (Fraction(1, 2), 3), (5, 1)]:
        with pytest.raises(ValueError, match=rf"^p must be a prime, got {p}$"):
            reduce_mod(q, p, e)


@pytest.mark.parametrize(
    "p, q, value", [(2, Fraction(1, 3), 3), (3, Fraction(1, 2), 14), (5, Fraction(1, 3), 42)]
)
def test_reduce_mod_keeps_the_small_primes(p, q, value):
    assert reduce_mod(q, p, 3) == PResidue(value, p, 3)
    with pytest.raises(NonPIntegralError):
        reduce_mod(Fraction(1, 2 * p), p, 3)
