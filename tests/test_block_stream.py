"""The block-streamed prime context against the whole-row one it replaced.

Every value a per-prime claim reads is compared with the whole-row oracle
(tests/whole_row.py): H_{p-1}(s) of the base claims, every product sum of
weight <= 5 and the expansion weights, the power sums for -6 <= a <= 6,
the step products over m <= p - 1 and the central-binomial sum.  At the
default block length every prime below 2000 and p = 10007 is one block,
and p = 100003 is seven.  With the block length patched small, small
primes run multi-block passes, a short last block, and a half range of
units that ends inside a block.
"""

from math import comb

import pytest

from mhs import congruences
from mhs.binomial_sums import cai_granville_holds, signed_binomial_power
from mhs.congruences import BASE_CLAIMS, PARTITIONS, PrimeContext
from mhs.residues import primes_in_range
from whole_row import WholeRowContext

EXPONENTS = range(-6, 7)


def _claim_values(context) -> dict:
    """Every value the per-prime claims read from a context."""
    values = {("mhs", claim.target): context.mhs(claim.target) for claim in BASE_CLAIMS}
    values.update((("sum", lam), context.product_sum(lam)) for lam in PARTITIONS)
    values.update((("power", a), context.power_sum(a)) for a in EXPONENTS)
    values["binomials"] = context.binomials
    values["expansion"] = context.expansion_weights
    return values


def _assert_stream_matches(p: int, e: int = 6) -> None:
    mod = p ** max(e, 6)
    context = PrimeContext(p, mod)
    context.sum_powers(EXPONENTS)  # one power pass, as the theorem claims ask
    streamed, whole = _claim_values(context), _claim_values(WholeRowContext(p, mod))
    assert streamed.keys() == whole.keys()
    for key, value in whole.items():
        assert streamed[key] == value, (p, e, key)


def test_stream_matches_whole_rows_at_every_prime_to_2000():
    for p in primes_in_range(7, 2000):
        _assert_stream_matches(p)


@pytest.mark.parametrize("p", [10007, 100003])
def test_stream_matches_whole_rows_at_large_primes(p):
    _assert_stream_matches(p)


@pytest.mark.parametrize("block", [1, 2, 3, 10])
def test_stream_matches_whole_rows_in_short_blocks(monkeypatch, block):
    monkeypatch.setattr(congruences, "_BLOCK", block)
    for p in primes_in_range(7, 60 if block == 1 else 150):
        for e in (6, 8):
            _assert_stream_matches(p, e)


@pytest.mark.parametrize("block", [4, 1 << 14])
def test_stream_matches_whole_rows_off_the_claims(monkeypatch, block):
    """Compositions and partitions no claim reads, and exponents outside -6..6."""
    monkeypatch.setattr(congruences, "_BLOCK", block)
    shapes = [(2, 1), (3, 1, 2), (1, 4, 1), (5,), (2, 2, 2, 2)]
    heavy = [(7, 2, 1), (6,), (3, 3, 1), (12, 1, 1)]
    for p in (7, 11, 37, 101):
        mod = p**6
        streamed, whole = PrimeContext(p, mod), WholeRowContext(p, mod)
        for s in shapes:
            assert streamed.mhs(s) == whole.mhs(s), (p, s)
        for lam in heavy:
            assert streamed.product_sum(lam) == whole.product_sum(lam), (p, lam)
        streamed.sum_powers([9, -11])
        for a in (9, 8, -11, -7):
            assert streamed.power_sum(a) == whole.power_sum(a), (p, a)


def test_signed_binomial_power_matches_comb():
    for p in (7, 11, 101):
        for e in (1, 4, 6, 8):
            mod = p**e
            for k in range(p):
                base = (-1) ** k * comb(p - 1, k)
                assert signed_binomial_power(k, 1, p, e).value == base % mod, (p, e, k)
                assert signed_binomial_power(k, 3, p, e).value == pow(base, 3, mod), (p, e, k)
                assert signed_binomial_power(k, -2, p, e).value == pow(base, -2, mod), (p, e, k)


def test_cai_granville_holds_beyond_the_claims():
    """a >= 4 has no claim; the exact check compares with math.comb."""
    for p in (7, 11, 101):
        for a in range(1, 7):
            assert cai_granville_holds(a, p), (p, a)
