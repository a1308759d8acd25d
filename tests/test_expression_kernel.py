"""The canonical-once expression kernel and the integer-scaled evaluator.

Ring operations merge already-canonical term dicts instead of rebuilding each
expression through the canonicalizing constructor.  These tests pin the fast
path to the constructor, check that no accumulator writes into an expression
it was given, and count the canonicalization work of a cold ``sum_product``.
The numeric oracles evaluate on an exact integer scale that grows with n,
den * lcm(1..n)^W at n; these tests hold that evaluator and
``partial_sum_oracle`` against the Fraction evaluators, and the integer-pair
telescoping kernel against the NPolynomial generator it replaced.
"""

import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhs import algebra, summation
from mhs.algebra import H, MhsExpression, N, NPolynomial
from mhs.core import Composition, mhs_prefix_values
from mhs.hoffman import hoffman_reduce
from mhs.partitions import partitions_of
from mhs.summation import partial_sum_oracle, sum_product, sum_single
from mhs.tables import ORACLE_POINTS, derive_table, row_basis

# Small pools, so that raw input repeats factors and keys and carries units.
parts = st.lists(st.integers(1, 2), max_size=2)
factor_lists = st.lists(parts, max_size=3)
fractions = st.fractions(min_value=-2, max_value=2, max_denominator=3)
polynomials = st.lists(fractions, max_size=3).map(NPolynomial)
raw_terms = st.lists(st.tuples(factor_lists, polynomials), max_size=6)
scalars = st.one_of(st.integers(-3, 3), fractions, polynomials)


def canonical(items) -> dict:
    """Terms of the canonicalizing constructor on raw (factors, coeff) items."""
    return MhsExpression(items)._terms


def assert_canonical(e: MhsExpression) -> None:
    for key, coeff in e._terms.items():
        assert all(type(c) is Composition and c for c in key)
        assert list(key) == sorted(key, key=Composition.sort_key)
        assert coeff and all(type(x) is Fraction for x in coeff.coeffs)
        assert coeff.coeffs[-1] != 0


@settings(max_examples=100, deadline=None)
@given(raw_terms, raw_terms, scalars)
def test_ring_operations_match_the_constructor(ta, tb, c):
    a, b = MhsExpression(ta), MhsExpression(tb)
    negated_b = [(f, -p) for f, p in tb]
    assert (a + b)._terms == canonical(ta + tb)
    assert (a - b)._terms == canonical(ta + negated_b)
    assert (-a)._terms == canonical([(f, -p) for f, p in ta])
    assert (c * a)._terms == canonical([(f, p * c) for f, p in ta])
    assert (a * b)._terms == canonical([(fa + fb, pa * pb) for fa, pa in ta for fb, pb in tb])
    for e in (a, a + b, a - b, -a, c * a, a * b, a.linearize()):
        assert_canonical(e)


@settings(max_examples=50, deadline=None)
@given(raw_terms, scalars)
def test_cancellation_leaves_no_zero_terms(ta, c):
    a = MhsExpression(ta)
    assert (a - a)._terms == {}
    assert (a + (-a))._terms == {}
    assert (0 * a)._terms == {}
    assert (c * a - a * c)._terms == {}


@settings(max_examples=50, deadline=None)
@given(raw_terms)
def test_constructor_canonicalizes_unsorted_input(ta):
    shuffled = [(list(reversed(f)) + [()], p) for f, p in ta]
    assert canonical(shuffled) == canonical(ta)
    assert_canonical(MhsExpression(shuffled))


def test_constructor_example():
    raw = [([(1, 2), (), (3,)], 1), ([(3,), (1, 2)], 2), ([(), ()], Fraction(1, 2))]
    expr = MhsExpression(raw)
    assert expr._terms == {
        (Composition((3,)), Composition((1, 2))): NPolynomial((3,)),
        (): NPolynomial((Fraction(1, 2),)),
    }
    assert (H() + H(3) * H(1, 2) - H(1, 2) * H(3) - 1)._terms == {}


@settings(max_examples=100, deadline=None)
@given(polynomials, polynomials, st.integers(-3, 3))
def test_npolynomial_operations_stay_canonical(p, q, x):
    for r in (p + q, p - q, -p, p * q, p * x):
        assert all(type(c) is Fraction for c in r.coeffs)
        assert not r.coeffs or r.coeffs[-1] != 0
    assert (p * q).eval(x) == p.eval(x) * q.eval(x)
    assert (p + q).eval(x) == p.eval(x) + q.eval(x)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=6).map(Composition))
def test_sum_single_unrolls_the_trailing_one_recursion(s):
    # S(s, 1) = (n+1) H(s, 1) + H(s) - S(s), less 1 for the empty s.
    t = Composition(tuple(s) + (1,))
    expected = (N + 1) * H(*t) + H(*s) - sum_single(s) - (0 if s else 1)
    assert sum_single(t) == expected
    assert partial_sum_oracle([t], sum_single(t), 8)


def test_accumulators_leave_cached_expressions_alone():
    product = [Composition.parse(x) for x in "2,1;1,2;1;1".split(";")]
    ordered = sorted(product, key=Composition.sort_key)
    linear = MhsExpression.monomial(1, ordered).linearize()
    comps = [m.factors[0] if m.factors else Composition() for m in linear.terms()]
    singles = {c: sum_single(c) for c in comps}
    single_terms = {c: dict(e._terms) for c, e in singles.items()}

    first = sum_product(product)
    first_terms = dict(first._terms)
    hoffman_reduce(6)
    derive_table(4)
    second = sum_product(product)

    assert second == first
    assert first._terms == first_terms
    for c, e in singles.items():
        assert sum_single(c) == e
        assert e._terms == single_terms[c]


def test_cold_sum_product_canonicalizes_linearly(monkeypatch):
    # A five-factor product with 675 linearized terms.  Every telescoped piece
    # goes straight into one dict whose keys are already distinct: no
    # canonicalizing construction, no merge, and one canonical sort of the
    # factor list, looked up where summation calls it.
    product = [Composition.parse(x) for x in "2,1;1,2;1;1;3".split(";")]
    assert len(algebra._linearize_factors(algebra._canonical_factors(product))) == 675
    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    merge = classmethod(counting("merge", MhsExpression._from_canonical.__func__))
    monkeypatch.setattr(MhsExpression, "__init__", counting("init", MhsExpression.__init__))
    monkeypatch.setattr(MhsExpression, "_from_canonical", merge)
    monkeypatch.setattr(
        summation, "_canonical_factors", counting("sort", summation._canonical_factors)
    )
    closed = sum_product(product)
    monkeypatch.undo()
    assert calls == {"sort": 1}, calls
    assert partial_sum_oracle(product, closed, 6)


def reference_telescoped(s: Composition):
    """The canonical (key, coeff) pieces of sum_{k=1}^n H_k(s), one at a time.

    The generator the engine once ran, kept as the reference for its
    integer-pair kernel: NPolynomial arithmetic on every piece, with the
    trailing 1s of s unrolled as S(t, 1) = (n+1) H(t, 1) + H(t) - S(t).
    """
    base = len(s)
    while base and s[base - 1] == 1:
        base -= 1
    sign = (-1) ** (len(s) - base)
    if base:  # s[:base] ends in an exponent > 1: no correction sum
        yield (Composition(s[:base]),), sign * (N + 1)
        yield (Composition(s[: base - 1] + (s[base - 1] - 1,)),), -sign * NPolynomial.one()
    else:
        yield (), sign * N  # sum of 1 over k = 1..n
    for cut in range(base + 1, len(s) + 1):
        sign = -sign
        yield (Composition(s[:cut]),), sign * (N + 1)
        if cut > 1:
            yield (Composition(s[: cut - 1]),), sign * NPolynomial.one()


def reference_sum_single(s) -> MhsExpression:
    return MhsExpression._from_canonical(reference_telescoped(Composition(s)))


# Compositions of depth <= 3 with parts <= 3, then a run of up to 3 trailing
# 1s; the empty composition (the unit) is allowed.  Products have 0-4 factors
# from this small pool, so factors repeat, and a total depth of 7 bounds the
# expansion to about 1,500 symbols: four depth-3 factors reach tens to
# hundreds of thousands, and seconds and gigabytes apiece.
def with_trailing_ones(head_parts, run):
    return st.builds(
        lambda head, r: Composition(head + [1] * r),
        st.lists(st.integers(1, head_parts), max_size=3),
        st.integers(0, run),
    )


products = st.lists(with_trailing_ones(3, 3), max_size=4).filter(
    lambda fs: sum(map(len, fs)) <= 7
)


@settings(max_examples=60, deadline=None)
@given(products)
@example([Composition((1, 1)), Composition((1, 1)), Composition(())])
@example([Composition((2,)), Composition((2,)), Composition((2,))])
@example([Composition((3, 1, 1, 1)), Composition((1, 1, 1))])
def test_sum_product_matches_the_reference_telescoping(fs):
    # The composition written out: linearize the product, then sum the
    # reference closed form of each single symbol scaled by its coefficient.
    if any(fs):
        linear = MhsExpression.monomial(1, fs).linearize().terms()
        expected = algebra._combine(
            (mono.coeff, reference_sum_single(mono.factors[0])) for mono in linear
        )
    else:
        expected = MhsExpression.constant(N)
    closed = sum_product(fs)
    assert closed == expected
    assert_canonical(closed)
    assert partial_sum_oracle(fs, closed, 4)


@settings(max_examples=100, deadline=None)
@given(with_trailing_ones(4, 20))
def test_sum_single_matches_the_reference_telescoping(s):
    closed = sum_single(s)
    assert closed == reference_sum_single(s)
    assert_canonical(closed)


def test_sum_single_of_a_long_run_of_ones_needs_no_recursion():
    s = Composition((1,) * 300)
    expected = reference_sum_single(s)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)  # far below the depth of s
    try:
        closed = sum_single(s)
    finally:
        sys.setrecursionlimit(limit)
    # (n + 1) H(1^300) and -(-1)^i n H(1^i) for i < 300
    assert len(closed._terms) == 301
    assert closed == expected


def sort_key_term_order(factors) -> tuple:
    """The term order as once keyed: a Composition.sort_key per factor."""
    keys = tuple(c.sort_key() for c in factors)
    return (sum(k[0] for k in keys), len(factors), keys)


# Products of 2-3 factors with parts up to 3, so that a factor can outweigh
# another of greater depth and the per-factor keys decide between terms.
wide_factors = st.lists(st.integers(1, 3), min_size=1, max_size=3)
product_terms = st.lists(
    st.tuples(st.lists(wide_factors, min_size=2, max_size=3), polynomials), max_size=8
)


@settings(max_examples=100, deadline=None)
@given(product_terms)
def test_terms_and_json_keep_the_sort_key_order(ta):
    e = MhsExpression(ta)
    expected = sorted(e._terms, key=sort_key_term_order, reverse=True)
    assert [m.factors for m in e.terms()] == expected
    assert [entry["factors"] for entry in e.to_json()] == [list(map(str, k)) for k in expected]


def test_format_term_branches():
    # Each branch of _coefficient_head, in text and LaTeX, as a whole expression.
    cases = [
        (3 * N * H(1), "3*n*H(1)", "3nH_n(1)"),
        (-Fraction(1, 2) * N**2 * H(1), "-1/2*n^2*H(1)", r"-\frac{1}{2}n^2H_n(1)"),
        ((3 * N + 1) * H(1), "(3*n + 1)*H(1)", "(3n+1)H_n(1)"),
        (-(3 * N + 1) * H(1), "-(3*n + 1)*H(1)", "-(3n+1)H_n(1)"),
        (H(1) - H(2), "-H(2) + H(1)", "-H_n(2)+H_n(1)"),
        (MhsExpression.constant(3 * N + 1), "3*n + 1", "3n+1"),
    ]
    for expr, text, latex in cases:
        assert str(expr) == text
        assert expr.latex() == latex


# Products of 0-3 compositions of total weight <= 5, with rational
# polynomial coefficients; several expressions are evaluated on one scale.
weighted_products = st.lists(
    st.lists(st.integers(1, 3), min_size=1, max_size=3), max_size=3
).filter(lambda fs: sum(map(sum, fs)) <= 5)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
scaled_terms = st.tuples(weighted_products, st.lists(rationals, max_size=3).map(NPolynomial))
expressions = st.lists(scaled_terms, max_size=5).map(MhsExpression)


@settings(max_examples=80, deadline=None)
@given(st.lists(expressions, min_size=1, max_size=3), st.integers(0, 32))
@example([H(3, 1) * H(2) + Fraction(1, 6) * N * H(1, 1), Fraction(-2, 5) * H(1) ** 3], 32)
def test_scaled_values_are_the_fraction_values_on_one_scale(exprs, nmax):
    # Row n shares D_n = den * lcm(1..n)^W: den the lcm of the coefficient
    # denominators, W the largest summed weight of a term's factors.  Up to
    # nmax = 32 the scale grows at the prime powers 2, 3, 4, 5, 7, 8, 9, 11,
    # 13, 16, 17, 19, 23, 25, 27, 29, 31 and 32, and each row carries its
    # growth D_n / D_(n-1), 1 at n = 0.
    den = math.lcm(*(c.denominator for e in exprs for m in e.terms() for c in m.coeff.coeffs))
    weight = max((sum(f.weight for f in m.factors) for e in exprs for m in e.terms()), default=0)
    values = list(algebra._scaled_values(exprs, nmax))
    assert len(values) == nmax + 1
    previous = den
    for n, (growth, row) in enumerate(values):
        scale = den * math.lcm(*range(1, n + 1)) ** weight
        assert type(growth) is int
        assert growth * previous == scale
        assert all(type(v) is int for v in row)
        assert list(row) == [scale * e.eval(n) for e in exprs]
        previous = scale


def fraction_partial_sum_oracle(factors, closed, nmax) -> bool:
    """The Fraction loop that partial_sum_oracle ran before, as its reference."""
    rows = [mhs_prefix_values(nmax, f) for f in factors]
    partial = Fraction(0)
    for n in range(1, nmax + 1):
        term = Fraction(1)
        for row in rows:
            term *= row[n]
        partial += term
        if closed.eval(n) != partial:
            return False
    return True


# Every column product H({1}^a) H({1}^b) ... of weight 3-5.
COLUMN_PRODUCTS = [
    [Composition((1,) * part) for part in lam] for w in (3, 4, 5) for lam in partitions_of(w)
]


def test_partial_sum_oracle_agrees_with_the_fraction_reference():
    # Each column product's closed form is accepted, and three perturbations
    # are refused by both oracles: one seen only at n = 40, one of 10^-9
    # times the closed form of sum_k H_k(1), and one product term.
    nmax = 40
    late = NPolynomial.one()
    for k in range(1, nmax):
        late = late * (N - k)
    tiny = Fraction(1, 10**9) * sum_product([(1,)])
    assert len(COLUMN_PRODUCTS) == 15
    for factors in COLUMN_PRODUCTS:
        closed = sum_product(factors)
        cases = [
            (closed, True),
            (closed + late * H(1), False),
            (closed + tiny, False),
            (closed + Fraction(1, 3) * H(2, 1) * H(1), False),
        ]
        for candidate, verdict in cases:
            assert partial_sum_oracle(factors, candidate, nmax) is verdict
            assert fraction_partial_sum_oracle(factors, candidate, nmax) is verdict


@pytest.mark.parametrize("nmax", [1, 2, 3, 4, 8, 9, 16, 25, 27])
def test_partial_sum_oracle_sums_on_the_running_scale(nmax):
    # The running sum is rescaled at each prime power n <= nmax; stopping at,
    # before or after one, both oracles accept each column product's closed
    # form and refuse the three perturbations above, the late one at nmax.
    # H_1(2, 1) = 0, so at nmax = 1 the product term goes unseen.
    late = NPolynomial.one()
    for k in range(1, nmax):
        late = late * (N - k)
    tiny = Fraction(1, 10**9) * sum_product([(1,)])
    for factors in COLUMN_PRODUCTS:
        closed = sum_product(factors)
        cases = [
            (closed, True),
            (closed + late * H(1), False),
            (closed + tiny, False),
            (closed + Fraction(1, 3) * H(2, 1) * H(1), nmax == 1),
        ]
        for candidate, verdict in cases:
            assert partial_sum_oracle(factors, candidate, nmax) is verdict, (factors, nmax)
            assert fraction_partial_sum_oracle(factors, candidate, nmax) is verdict


def test_oracles_refuse_a_weight5_cell_off_by_one_part_in_10_12():
    table = derive_table(5)
    basis = [row.basis for row in row_basis(5)]
    bump = Fraction(1, 10**12)
    for j, factors in enumerate(table.columns):
        head = (N + 1, MhsExpression.monomial(1, factors))
        cells = [row[j] for row in table.cells]
        closed = algebra._combine([head, *zip(cells, basis)])
        assert partial_sum_oracle(factors, closed, ORACLE_POINTS)
        assert fraction_partial_sum_oracle(factors, closed, ORACLE_POINTS)
        for i in range(len(cells)):
            bumped = cells[:i] + [cells[i] + bump] + cells[i + 1 :]
            closed = algebra._combine([head, *zip(bumped, basis)])
            assert not partial_sum_oracle(factors, closed, ORACLE_POINTS), (i, j)
            assert not fraction_partial_sum_oracle(factors, closed, ORACLE_POINTS), (i, j)
