from fractions import Fraction
from math import factorial

import pytest

from mhs.algebra import H, expr_equal, linearize
from mhs.core import eval_mhs
from mhs.hoffman import TERM_BUDGET, hoffman_reduce, partition_coefficients
from mhs.partitions import arrangement_count, enumerate_partitions, partition_counts, partitions_of


def test_displayed_reductions():
    assert expr_equal(hoffman_reduce(2), H(1) ** 2 - H(2))
    assert expr_equal(hoffman_reduce(3), H(1) ** 3 - 3 * H(1) * H(2) + 2 * H(3))
    assert expr_equal(
        hoffman_reduce(4),
        H(1) ** 4 - 6 * H(1) ** 2 * H(2) + 8 * H(1) * H(3) + 3 * H(2) ** 2 - 6 * H(4),
    )


def test_reduction_matches_linearized_homogeneous():
    for d in range(1, 6):
        lhs = factorial(d) * H(*([1] * d))
        assert linearize(lhs - hoffman_reduce(d)).is_zero()


@pytest.mark.parametrize("d", range(1, 7))
def test_numeric_agreement(d):
    reduction = hoffman_reduce(d)
    for n in range(21):
        assert factorial(d) * eval_mhs(n, (1,) * d) == reduction.eval(n)


def test_coefficients_integral():
    for d in range(1, 8):
        for mono in hoffman_reduce(d).terms():
            assert mono.coeff.degree <= 0
            assert mono.coeff.coeff(0).denominator == 1


def test_partition_coefficients_examples():
    assert partition_coefficients(2) == {(2,): -1, (1, 1): 1}
    assert partition_coefficients(1) == {(1,): 1}
    assert partition_coefficients(4)[(3, 1)] == 8


def test_partition_coefficients_follow_newtons_recurrence():
    # e_d = (1/d) sum_m (-1)^(m-1) p_m e_{d-m}, over {partition: Fraction}.
    elementary = [{(): Fraction(1)}]
    for d in range(1, 17):
        e_d = {}
        for m in range(1, d + 1):
            for lam, c in elementary[d - m].items():
                key = tuple(sorted(lam + (m,), reverse=True))
                e_d[key] = e_d.get(key, 0) + Fraction((-1) ** (m - 1), d) * c
        elementary.append(e_d)
        assert {lam: c * factorial(d) for lam, c in e_d.items()} == partition_coefficients(d)


def test_partition_coefficients_keys_complete():
    for d in range(1, 7):
        assert set(partition_coefficients(d)) == set(partitions_of(d))


def test_reduction_at_n_equals_1():
    # every H_1(m) is 1, so the reduction collapses to d! * H_1({1}^d)
    for d in range(1, 7):
        total = sum(partition_coefficients(d).values())
        assert total == factorial(d) * (1 if d <= 1 else 0)


def test_enumerate_partitions():
    assert enumerate_partitions(3, 2) == [(2, 1)]
    assert enumerate_partitions(5, 1) == [(5,)]
    assert enumerate_partitions(4, 2) == [(3, 1), (2, 2)]
    assert enumerate_partitions(3, 4) == []


def test_partitions_of_counts():
    counts = [len(partitions_of(d)) for d in range(1, 8)]
    assert counts == [1, 2, 3, 5, 7, 11, 15]


def test_partition_counts_match_the_enumeration():
    assert partition_counts(25, TERM_BUDGET) == [1] + [len(partitions_of(d)) for d in range(1, 26)]
    assert partition_counts(200, 10**20)[-1] == 3_972_999_029_388


def test_the_term_budget_admits_d_60_and_refuses_d_61():
    # through the count: d = 60 itself would build its 966,467 terms
    assert partition_counts(60, TERM_BUDGET)[-1] == 966_467 <= TERM_BUDGET
    with pytest.raises(ValueError, match=r"d=61 needs p\(61\) >= 1,121,505 terms"):
        partition_coefficients(61)


def test_arrangement_count():
    assert arrangement_count((1, 1)) == 1
    assert arrangement_count((2, 1)) == 2
    assert arrangement_count((2, 1, 1)) == 3
    assert arrangement_count((3, 2, 1)) == 6
