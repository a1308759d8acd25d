from fractions import Fraction

import pytest

from mhs import congruences
from mhs.bernoulli import bernoulli, bernoulli_invariant
from mhs.congruences import (
    BASE_CLAIMS,
    SUM_CLAIMS,
    PadicForm,
    base_congruence_suite,
    cross_derivation_check,
    homogeneous_product_sum_mod,
    mhs_mod,
    sum_congruence_suite,
)
from mhs.core import eval_mhs, eval_mhs_direct, mhs_prefix_values
from mhs.residues import (
    NonPIntegralError,
    PResidue,
    is_prime,
    padic_valuation,
    primes_in_range,
    reduce_mod,
    require_admissible,
)


def test_bernoulli_checkpoints():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(10) == Fraction(5, 66)
    assert all(bernoulli(m) == 0 for m in (3, 5, 7, 9, 11))


def test_bernoulli_invariant_values():
    assert bernoulli_invariant(7) == Fraction(-2, 165)
    assert bernoulli_invariant(11) == bernoulli(8) / 8 - bernoulli(18) / 36
    with pytest.raises(ValueError):
        bernoulli_invariant(6)
    with pytest.raises(ValueError):
        bernoulli_invariant(5)


def test_bernoulli_invariant_p_integral_up_to_199():
    for p in primes_in_range(7, 199):
        assert bernoulli_invariant(p).denominator % p != 0


def test_reduce_mod_examples():
    r = reduce_mod(Fraction(49, 20), 7, 4)
    assert (20 * r.value - 49) % 7**4 == 0
    assert reduce_mod(3, 5, 2) == PResidue(3, 5, 2)
    with pytest.raises(NonPIntegralError):
        reduce_mod(Fraction(1, 7), 7, 3)


def test_presidue_equality_hash_and_repr():
    r = PResidue(52, 7, 2)
    assert r == PResidue(3, 7, 2) and hash(r) == hash(PResidue(3, 7, 2))
    assert r != PResidue(3, 7, 3) and r != PResidue(3, 5, 2)
    assert r != (3, 7, 2) and r != 3
    assert len({r, PResidue(101, 7, 2), PResidue(3, 7, 3)}) == 2
    assert repr(r) == "PResidue(3 mod 7^2)"


def test_padic_valuation():
    assert padic_valuation(Fraction(49, 3), 7) == 2
    assert padic_valuation(Fraction(3, 49), 7) == -2
    assert padic_valuation(0, 7) is None


@pytest.mark.parametrize("p", [1, 0, -1])
def test_padic_valuation_refuses_p_below_2(p):
    # p = 1 and p = -1 divide every integer, so the count would never end
    for q in (5, Fraction(3, 4), 0):
        with pytest.raises(ValueError, match=f"got {p}"):
            padic_valuation(q, p)


def test_primality_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_in_range(7, 31) == [7, 11, 13, 17, 19, 23, 29, 31]


def test_require_admissible_refuses_all_but_primes_above_5():
    require_admissible(101)
    # a non-prime and the primes <= 5 are refused on every call
    for bad in (91, 5, 5, 3, 1, 0, -7, 101**2):
        with pytest.raises(ValueError, match="prime > 5"):
            require_admissible(bad)


def test_mhs_mod_examples():
    x7 = bernoulli_invariant(7)
    assert mhs_mod((1,), 7, 4) == reduce_mod(2 * 49 * x7, 7, 4)
    assert mhs_mod((1,), 7, 1).value == 0
    assert mhs_mod((), 11, 2).value == 1
    # exact witness: H_6(1) - 2 * 7^2 * X_7 has 7-adic valuation exactly 4
    assert eval_mhs(6, (1,)) - 2 * 49 * x7 == Fraction(7**4, 660)


@pytest.mark.parametrize("p", primes_in_range(7, 31))
def test_streaming_agrees_with_exact(p):
    shapes = [(1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 1), (1, 3), (1, 1, 2), (1, 1, 1, 1)]
    for s in shapes:
        for e in (1, 2, 3, 4):
            assert mhs_mod(s, p, e) == reduce_mod(eval_mhs(p - 1, s), p, e)


def test_homogeneous_product_sum_matches_rationals():
    p, e = 11, 3
    mod = p**e
    for lam in [(1,), (2, 1), (1, 1, 1), (3, 2)]:
        rows = [mhs_prefix_values(p - 1, (1,) * part) for part in lam]
        total = Fraction(0)
        for n in range(1, p):
            term = Fraction(1)
            for row in rows:
                term *= row[n]
            total += term
        assert homogeneous_product_sum_mod(lam, p, e) == reduce_mod(total, p, e).value % mod


@pytest.mark.parametrize("lam, part", [((0,), 0), ((2, 0), 0), ((-1,), -1), ((1, -3, 2), -3)])
def test_homogeneous_product_sum_refuses_parts_below_one(lam, part):
    with pytest.raises(ValueError, match=f"got {part}$"):
        homogeneous_product_sum_mod(lam, 7, 1)


def test_registry_shapes():
    assert len(BASE_CLAIMS) == 10
    assert len(SUM_CLAIMS) == 18
    assert [c.exponent for c in SUM_CLAIMS[:6]] == [5, 4, 4, 3, 3, 3]
    assert all(c.exponent == 1 for c in SUM_CLAIMS if sum(c.target) == 5)


@pytest.mark.parametrize("p", primes_in_range(7, 100))
def test_suites_pass(p):
    assert all(c.passed for c in base_congruence_suite(p))
    assert all(c.passed for c in sum_congruence_suite(p))


def test_specific_sum_rows_at_7():
    results = {c.claim_id: c for c in sum_congruence_suite(7)}
    assert results["S:1,1"].passed  # sum of H_k(1)^2 mod p^4
    assert results["S:1,1,1,1,1"].passed  # sum of H_k(1)^5 mod p


def test_suites_reject_small_primes():
    with pytest.raises(ValueError):
        base_congruence_suite(5)
    with pytest.raises(ValueError):
        sum_congruence_suite(9)


def test_cross_derivation_weight_le_3():
    for lam in [(1,), (2,), (1, 1), (3,), (2, 1), (1, 2), (1, 1, 1)]:
        assert cross_derivation_check(lam), lam
    with pytest.raises(ValueError, match="weight <= 3"):
        cross_derivation_check((4,))
    for lam in [(6,), ()]:
        with pytest.raises(ValueError, match="no sum claim"):
            cross_derivation_check(lam)


# Every right-side coefficient of the weight <= 3 sum rows, one case each.
_PERTURBATIONS = [
    pytest.param(claim, k, id=f"{claim.claim_id}-p^{i}X^{j}")
    for claim in SUM_CLAIMS
    if sum(claim.target) <= 3
    for k, ((i, j), _) in enumerate(claim.rhs_terms)
]


@pytest.mark.parametrize("claim, k", _PERTURBATIONS)
def test_cross_derivation_refuses_a_perturbed_row(monkeypatch, claim, k):
    terms = list(claim.rhs_terms)
    key, coeff = terms[k]
    terms[k] = (key, coeff + 1)
    wrong = claim._replace(rhs_terms=tuple(terms))
    rows = tuple(wrong if c is claim else c for c in SUM_CLAIMS)
    monkeypatch.setattr(congruences, "SUM_CLAIMS", rows)
    assert not cross_derivation_check(claim.target)


def test_perturbations_cover_all_22_coefficients():
    assert len(_PERTURBATIONS) == 22


def test_padic_form_error_propagation():
    a = PadicForm({(0, 0): 1}, err=2)
    b = PadicForm({(1, 0): 1}, err=3)
    assert repr(a * b) == "PadicForm(1*p^1*X^0 + O(p^3))"
    assert repr(b * b) == "PadicForm(1*p^2*X^0 + O(p^4))"
    assert repr(a + b) == "PadicForm(1*p^0*X^0 + 1*p^1*X^0 + O(p^2))"
    assert repr(a - a) == "PadicForm(0 + O(p^2))"
    assert repr(a * a * a - PadicForm({(0, 0): 1})) == "PadicForm(0 + O(p^2))"
    c = PadicForm({(0, 0): Fraction(1, 2), (2, 1): 3, (5, 0): 7}, err=4)  # p^5 is absorbed
    assert repr(c) == "PadicForm(1/2*p^0*X^0 + 3*p^2*X^1 + O(p^4))"
    assert repr(c * c) == "PadicForm(1/4*p^0*X^0 + 3*p^2*X^1 + O(p^4))"
    assert (a * b).valuation() == 1
    assert (a - a).valuation() == 2


def test_padic_form_exact_zero():
    zero, a = PadicForm(), PadicForm({(0, 0): 1}, err=2)
    assert repr(zero) == repr(PadicForm({(0, 0): 0})) == "PadicForm(0)"
    assert repr(zero * a) == repr(a * zero) == "PadicForm(0)"  # 0 * (1 + O(p^2)) is exactly 0
    assert repr(PadicForm({(0, 0): 1})) == "PadicForm(1*p^0*X^0)"
    assert zero.congruent_to(PadicForm(), 10**9)


def test_padic_form_congruent_to_needs_the_error_at_the_modulus():
    one, a = PadicForm({(0, 0): 1}), PadicForm({(0, 0): 1}, err=2)
    assert a.congruent_to(one, 2)
    assert not a.congruent_to(one, 3)  # 1 + O(p^2) - 1 is undetermined modulo p^3
    assert not one.congruent_to(PadicForm({(0, 0): 1}, err=1), 2)
    assert not PadicForm({(2, 1): 1}).congruent_to(PadicForm(), 3)
    assert PadicForm({(3, 1): 1}).congruent_to(PadicForm(), 3)


def test_report_json_keys():
    result = base_congruence_suite(7)[0]
    data = result.to_json()
    assert set(data) == {"claim-id", "p", "modulus", "lhs-residue", "rhs-residue", "pass"}


@pytest.mark.parametrize("p", [7, 11, 13])
def test_residue_rows_match_direct_oracle(p):
    """The Z/p^e kernel against reductions of brute-force rational sums."""
    shapes = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 3), (1, 1, 2), (1, 1, 1, 1)]
    direct = {s: eval_mhs_direct(p - 1, s) for s in shapes}
    homogeneous = {d: [eval_mhs_direct(k, (1,) * d) for k in range(p)] for d in (1, 2, 3)}
    for e in (1, 2, 3, 4):
        for s in shapes:
            assert mhs_mod(s, p, e) == reduce_mod(direct[s], p, e)
        # () is the empty product, 1 at every k, as mhs_mod((), p, e) is 1.
        for lam in [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (3, 2), (2, 2, 1)]:
            total = Fraction(0)
            for k in range(1, p):
                term = Fraction(1)
                for part in lam:
                    term *= homogeneous[part][k]
                total += term
            assert homogeneous_product_sum_mod(lam, p, e) == reduce_mod(total, p, e).value
