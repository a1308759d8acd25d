"""Expressions written term by term, against the whole-document renderers.

``MhsExpression.write`` streams the text, LaTeX or JSON of an expression; it
is the one producer behind ``render``, ``latex`` and the ``derive`` and
``reduce`` output.  These tests hold it against ``json.dumps(to_json())`` and
against the renderer it replaced, kept here as the oracle ``joined``: every
term formatted in full, in an order keyed per term, then joined.  They also
pin that streaming holds no whole document in memory.
"""

import io
import json
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhs.algebra import H, MhsExpression, N, NPolynomial
from mhs.core import Composition
from mhs.hoffman import hoffman_reduce
from mhs.summation import sum_product

# The heaviest product of the seed-1 derive-symbolic deck: 1,748 single-symbol terms.
MIXED = (Composition((1, 1)), Composition((3, 1)), Composition((3, 3, 3, 3)))


def order_key(factors) -> tuple:
    """The canonical term order, keyed per term: weight, factor count, per-factor keys."""
    return (sum(map(sum, factors)), len(factors), [(sum(c), len(c), c) for c in factors])


def format_factors(factors, latex: bool) -> str:
    counts = Counter(factors)
    pieces = []
    for comp in sorted(counts, key=Composition.sort_key):
        mult = counts[comp]
        if latex:
            body = rf"\{{1\}}^{len(comp)}" if len(comp) >= 2 and set(comp) == {1} else str(comp)
            pieces.append(f"H_n({body})" if mult == 1 else f"H_n^{mult}({body})")
        else:
            pieces.append(f"H({comp})" if mult == 1 else f"H({comp})^{mult}")
    return ("" if latex else "*").join(pieces)


def format_term(coeff: NPolynomial, factors, latex: bool) -> str:
    fmt = NPolynomial.latex if latex else str
    if not factors:
        return fmt(coeff)
    body = format_factors(factors, latex)
    times = "" if latex else "*"
    if coeff.coeffs == (1,):
        return body
    if coeff.coeffs == (-1,):
        return "-" + body
    if sum(1 for c in coeff.coeffs if c) == 1:
        return f"{fmt(coeff)}{times}{body}"
    if coeff.coeffs[-1] < 0:
        return f"-({fmt(-coeff)}){times}{body}"
    return f"({fmt(coeff)}){times}{body}"


def joined(e: MhsExpression, latex: bool) -> str:
    """The whole text (or LaTeX) of ``e``, built as one string."""
    if e.is_zero():
        return "0"
    minus, plus = ("-", "+") if latex else (" - ", " + ")
    keys = sorted(e._terms, key=order_key, reverse=True)
    parts = [format_term(e._terms[k], k, latex) for k in keys]
    rest = (minus + p[1:] if p.startswith("-") else plus + p for p in parts[1:])
    return parts[0] + "".join(rest)


def written(e: MhsExpression, fmt: str) -> str:
    buffer = io.StringIO()
    e.write(buffer, fmt)
    return buffer.getvalue()


def assert_streams_match(e: MhsExpression) -> None:
    assert written(e, "json") == json.dumps(e.to_json())
    assert written(e, "text") == joined(e, latex=False) == str(e) == e.render()
    assert written(e, "latex") == joined(e, latex=True) == e.latex()
    expected = sorted(e._terms, key=order_key, reverse=True)
    assert [m.factors for m in e.terms()] == expected
    assert [entry["factors"] for entry in e.to_json()] == [list(map(str, k)) for k in expected]


# A small pool of symbols, so that keys repeat factors, and of coefficient
# objects, so that one NPolynomial is shared by several keys (the empty key
# among them), as in a closed form; ±1, a negative leading coefficient and
# rational coefficients up to degree 3 all occur.
symbols = st.sampled_from([(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (3, 1, 1)])
coefficients = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=4
).map(NPolynomial)
shared = st.sampled_from(
    [NPolynomial(c) for c in [(1,), (-1,), (0, 1), (1, 1), (-1, 0, 0, -2), (Fraction(-1, 2),)]]
)
coefficient = st.one_of(shared, coefficients)
linear_terms = st.tuples(st.lists(symbols, max_size=1), coefficient)
product_terms = st.tuples(st.lists(symbols, max_size=4), coefficient)
expressions = st.one_of(
    st.lists(linear_terms, max_size=12), st.lists(product_terms, max_size=12)
).map(MhsExpression)


@settings(max_examples=300, deadline=None)
@given(expressions)
@example(MhsExpression.zero())
@example(MhsExpression.constant(-3 * N - 1))
@example(MhsExpression([((), N), (((1,),), N), (((1,), (1,)), N)]))
@example(-(N**3) / 7 * H(1) ** 3 * H(2, 1) - H(1, 1) * H(1) + Fraction(5, 2))
def test_streamed_output_equals_the_whole_document_renderers(e):
    assert_streams_match(e)


def test_the_linearized_and_summed_forms_stream_like_the_oracle():
    # Closed forms share one NPolynomial per distinct value; a Hoffman
    # reduction has keys of many factors, repeated ones among them.
    assert_streams_match(sum_product(MIXED))
    assert_streams_match(sum_product([(1,), (1,)]))
    assert_streams_match(sum_product([]))
    assert_streams_match((H(2, 1) * H(1) ** 2 * (N - 1)).linearize())
    assert_streams_match(hoffman_reduce(8))


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
def test_writing_the_mixed_depth_form_holds_no_whole_document(fmt):
    # Streaming the 1,748-term closed form raises the traced peak by at most a
    # quarter of what building its whole text adds on the same expression.
    closed = sum_product(MIXED)
    whole = {
        "text": lambda: str(closed),
        "latex": lambda: closed.latex(),
        "json": lambda: json.dumps(closed.to_json()),
    }[fmt]

    class Sink(io.TextIOBase):
        def write(self, text):
            return len(text)

    sink = Sink()

    def added(action) -> int:
        action()  # a first call pays for anything cached on first use
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        streamed = added(lambda: closed.write(sink, fmt))
        built = added(whole)
    finally:
        tracemalloc.stop()
    assert len(closed._terms) == 1748
    assert 4 * streamed <= built, (streamed, built)


def test_write_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        H(1).write(io.StringIO(), "html")
