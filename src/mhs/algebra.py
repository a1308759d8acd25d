"""Quasi-shuffle (stuffle) algebra of multiple harmonic sums.

An :class:`MhsExpression` is a finite sum of monomials, each a polynomial in
the symbol n (exact rational coefficients) times a product of harmonic-sum
symbols H(s).  The stuffle product rewrites the product of two symbols as an
integer combination of single symbols of added weight:

    H(s) * H(t) = sum of H(r) over the quasi-shuffle expansion of s and t

computed by the first-entry rule with three branches (take s1, take t1, or
merge the two heads into s1 + t1), bottom-up over suffix pairs, with no
recursion and no memo.  `linearize` folds this over the factors of each
monomial until it carries at most one symbol; that linear form is the
canonical representative used to decide equality.  The numeric checks
evaluate expressions over the integers, not over Fractions, on an exact scale
that grows with n (`_scaled_values`): den * lcm(1..n)^W at n.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Iterator, NamedTuple, TextIO

from .core import Composition, eval_mhs

__all__ = [
    "NPolynomial",
    "MhsMonomial",
    "MhsExpression",
    "ExpressionConsistencyError",
    "H",
    "N",
    "stuffle",
    "linearize",
    "expr_mul",
    "expr_equal",
    "eval_expr",
]


def _json_strings(data) -> list[str]:
    """data itself if it is a list of strings, the form every to_json writes."""
    if isinstance(data, list) and all(isinstance(s, str) for s in data):
        return data
    raise TypeError(f"expected a JSON list of strings, got {data!r}")


class NPolynomial:
    """Dense univariate polynomial in n over exact rationals.

    Coefficients are stored by ascending power with no trailing zeros, so the
    representation is canonical and the zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        # Arithmetic passes Fractions already; only other input is coerced.
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "NPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "NPolynomial":
        return cls((1,))

    @classmethod
    def variable(cls) -> "NPolynomial":
        """The polynomial n itself."""
        return cls((0, 1))

    @classmethod
    def coerce(cls, value) -> "NPolynomial":
        if isinstance(value, cls):
            return value
        if isinstance(value, (int, Fraction)):
            return cls((value,))
        raise TypeError(f"cannot coerce {value!r} to NPolynomial")

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = NPolynomial((other,))
        if not isinstance(other, NPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "NPolynomial":
        return NPolynomial([-c for c in self.coeffs])

    def __add__(self, other) -> "NPolynomial":
        if isinstance(other, (int, Fraction)):
            other = NPolynomial((other,))
        if not isinstance(other, NPolynomial):
            return NotImplemented
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return NPolynomial([x + y for x, y in pairs])

    __radd__ = __add__

    def __sub__(self, other) -> "NPolynomial":
        if isinstance(other, (int, Fraction, NPolynomial)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> "NPolynomial":
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NPolynomial([c * other for c in self.coeffs])
        if isinstance(other, NPolynomial):
            a, b = self.coeffs, other.coeffs
            if len(a) > len(b):
                a, b = b, a
            if len(a) <= 1:  # zero or a constant scales the other factor
                return NPolynomial([c * a[0] for c in b] if a else [])
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return NPolynomial(out)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "NPolynomial":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "NPolynomial":
        if exponent < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = NPolynomial.one()
        for _ in range(exponent):
            result = result * self
        return result

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def eval(self, value) -> Fraction:
        """Evaluate at an exact point (Horner)."""
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * value + c
        return total

    def compose(self, inner: "NPolynomial") -> "NPolynomial":
        """self(inner(n)) as a polynomial in n."""
        total = NPolynomial.zero()
        for c in reversed(self.coeffs):
            total = total * inner + NPolynomial((c,))
        return total

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: list[str]) -> "NPolynomial":
        return cls(tuple(Fraction(s) for s in _json_strings(data)))

    def _format(self, times: str, frac=str) -> str:
        if not self.coeffs:
            return "0"
        pieces: list[tuple[str, str]] = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            sign = "-" if c.numerator < 0 else "+"
            mag = abs(c.numerator) if c.denominator == 1 else abs(c)  # an int prints the same
            if i == 0:
                body = frac(mag)
            else:
                var = "n" if i == 1 else f"n^{i}"
                body = var if mag == 1 else f"{frac(mag)}{times}{var}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = first_body if first_sign == "+" else "-" + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self) -> str:
        return self._format(times="*")

    def latex(self) -> str:
        def frac(x: Fraction) -> str:
            if x.denominator == 1:
                return str(x.numerator)
            return rf"\frac{{{x.numerator}}}{{{x.denominator}}}"

        return self._format(times="", frac=frac).replace(" ", "")

    def __repr__(self) -> str:
        return f"NPolynomial({self.coeffs!r})"


#: The polynomial n, for building coefficients like N + 1 or 3 * N.
N = NPolynomial.variable()


def _stuffle(s: tuple, t: tuple) -> dict[tuple, int]:
    """The quasi-shuffle of s and t as {composition: multiplicity}, bottom-up.

    row[j] holds the expansion of s[i:] * t[j:]; each row i is built from row
    i + 1 by the first-entry rule, and only those two rows are kept.
    """
    below = [{t[j:]: 1} for j in range(len(t) + 1)]  # s[len(s):] is the unit
    for i in range(len(s) - 1, -1, -1):
        a = s[i]
        row = [None] * len(t) + [{s[i:]: 1}]
        for j in range(len(t) - 1, -1, -1):
            b = t[j]
            acc = {(a,) + r: m for r, m in below[j].items()}
            for head, branch in ((b, row[j + 1]), (a + b, below[j + 1])):
                for r, m in branch.items():
                    key = (head,) + r
                    acc[key] = acc.get(key, 0) + m
            row[j] = acc
        below = row
    return below[0]


def stuffle(s: Iterable[int], t: Iterable[int]) -> Counter:
    """Quasi-shuffle expansion of H(s) * H(t) as a multiset of compositions.

    Every output composition has weight |s| + |t|, and the multiplicities sum
    to the Delannoy number D(depth s, depth t).
    """
    expansion = _stuffle(Composition(s), Composition(t))
    return Counter({Composition(r): m for r, m in expansion.items()})


def _linearize_factors(factors: tuple) -> dict[tuple, int]:
    """Expand a product of symbols into single symbols with multiplicities.

    A left fold: each accumulated composition is stuffled with the next factor.
    """
    acc: dict[tuple, int] = {(): 1}
    for factor in factors:
        step: dict[tuple, int] = {}
        for comp, mult in acc.items():
            for r, m in _stuffle(comp, factor).items():
                step[r] = step.get(r, 0) + mult * m
        acc = step
    return acc


def _canonical_factors(factors: Iterable) -> tuple[Composition, ...]:
    comps = (c for c in map(Composition, factors) if c)  # drop units H(()) = 1
    return tuple(sorted(comps, key=Composition.sort_key))


class MhsMonomial(NamedTuple):
    """One term of an expression: coeff(n) times a product of symbols."""

    coeff: NPolynomial
    factors: tuple[Composition, ...]


def _term_order_key(factors: tuple[Composition, ...]) -> tuple:
    return (sum(map(sum, factors)), len(factors), [(sum(c), len(c), c) for c in factors])


def _canonical_keys(terms: dict) -> Iterator[tuple]:
    """The keys of ``terms`` in descending canonical order (heaviest factors first).

    Keys of several factors sort by :func:`_term_order_key`.  When no key has
    more than one, that order is the flat (weight, depth, composition) of the
    lone factor, the empty key last: the keys are grouped by weight and depth
    and each group sorts as plain tuples, so no sort key is built per term.
    """
    if any(len(key) > 1 for key in terms):
        yield from sorted(terms, key=_term_order_key, reverse=True)
        return
    groups: dict[tuple[int, int], list] = {}
    for key in terms:
        comp = key[0] if key else key
        shape = (sum(comp), len(comp))
        group = groups.get(shape)
        if group is None:
            groups[shape] = [key]
        else:
            group.append(key)
    for shape in sorted(groups, reverse=True):
        yield from sorted(groups[shape], reverse=True)


def _merged(pieces: Iterable) -> dict:
    """Sum (key, coeff) pieces with canonical keys per key, dropping zero sums."""
    acc: dict = {}
    for key, coeff in pieces:
        prev = acc.get(key)
        acc[key] = coeff if prev is None else prev + coeff
    return {k: v for k, v in acc.items() if v}


class MhsExpression:
    """Formal rational-polynomial combination of products of MHS symbols.

    Input is canonicalized on construction: factors sorted, units dropped,
    terms sharing a factor multiset merged, zero coefficients removed.  So
    structural equality (``==``) compares canonical forms.  Ring operations
    merge the already-canonical term dicts and never canonicalize again.
    Mathematical equality is decided by :func:`expr_equal`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        canonical = ((_canonical_factors(f), NPolynomial.coerce(c)) for f, c in items)
        self._terms = _merged(canonical)

    @classmethod
    def _from_canonical(cls, pieces: Iterable) -> "MhsExpression":
        """Build from (key, coeff) pieces whose keys are already canonical."""
        expr = object.__new__(cls)
        expr._terms = _merged(pieces)
        return expr

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MhsExpression":
        return cls()

    @classmethod
    def constant(cls, value) -> "MhsExpression":
        return cls([((), NPolynomial.coerce(value))])

    @classmethod
    def symbol(cls, comp: Iterable[int]) -> "MhsExpression":
        return cls([((Composition(comp),), NPolynomial.one())])

    @classmethod
    def monomial(cls, coeff, factors: Iterable) -> "MhsExpression":
        return cls([(tuple(Composition(f) for f in factors), NPolynomial.coerce(coeff))])

    # -- views -------------------------------------------------------------

    def terms(self) -> list[MhsMonomial]:
        """Terms in descending canonical order (heaviest factors first)."""
        return [MhsMonomial(self._terms[k], k) for k in _canonical_keys(self._terms)]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def single_symbols(self) -> set[Composition]:
        """Compositions appearing as lone factors (meaningful after linearize)."""
        return {fs[0] for fs in self._terms if len(fs) == 1}

    def max_coeff_degree(self) -> int:
        return max((p.degree for p in self._terms.values()), default=0)

    # -- ring operations ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MhsExpression):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # canonical but mutable innards; use expr_equal for math equality

    def __add__(self, other) -> "MhsExpression":
        if isinstance(other, (int, Fraction, NPolynomial)):
            other = MhsExpression.constant(other)
        if not isinstance(other, MhsExpression):
            return NotImplemented
        return _combine(((None, self), (None, other)))

    __radd__ = __add__

    def __neg__(self) -> "MhsExpression":
        return _combine(((-1, self),))

    def __sub__(self, other) -> "MhsExpression":
        if isinstance(other, (int, Fraction, NPolynomial)):
            other = MhsExpression.constant(other)
        if not isinstance(other, MhsExpression):
            return NotImplemented
        return _combine(((None, self), (-1, other)))

    def __rsub__(self, other) -> "MhsExpression":
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, NPolynomial)):
            return _combine(((other, self),))
        if isinstance(other, MhsExpression):
            # Formal product: factor multisets union, coefficients multiply.
            # Both keys are canonical, so their union needs only a sort.
            products = (
                (tuple(sorted(f1 + f2, key=Composition.sort_key)), c1 * c2)
                for f1, c1 in self._terms.items()
                for f2, c2 in other._terms.items()
            )
            return MhsExpression._from_canonical(products)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MhsExpression":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "MhsExpression":
        if exponent < 0:
            raise ValueError("negative powers of expressions are not defined")
        result = MhsExpression.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    # -- stuffle reduction and evaluation ------------------------------------

    def linearize(self) -> "MhsExpression":
        """Stuffle-reduce so every term has at most one symbol.

        Idempotent; the result is the canonical linear form.
        """
        pieces = (
            ((Composition(comp),) if comp else (), coeff * mult)
            for factors, coeff in self._terms.items()
            for comp, mult in _linearize_factors(factors).items()
        )
        return MhsExpression._from_canonical(pieces)

    def eval(self, n: int) -> Fraction:
        """Exact numeric value at a concrete n."""
        total = Fraction(0)
        for factors, coeff in self._terms.items():
            value = coeff.eval(n)
            if value == 0:
                continue
            for comp in factors:
                value *= eval_mhs(n, comp)
            total += value
        return total

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list[dict]:
        """Round-trippable form: one object per term, canonical order."""
        return [
            {"coeff": self._terms[k].to_json(), "factors": list(map(str, k))}
            for k in _canonical_keys(self._terms)
        ]

    @classmethod
    def from_json(cls, data: Iterable[dict]) -> "MhsExpression":
        return cls(
            (
                map(Composition.parse, _json_strings(entry["factors"])),
                NPolynomial.from_json(entry["coeff"]),
            )
            for entry in data
        )

    # -- rendering ------------------------------------------------------------

    def write(self, stream: TextIO, format: str) -> None:
        """Write the expression to ``stream`` one term at a time, with no newline.

        ``format`` "text", "latex" or "json" writes ``render()``, ``latex()``
        or ``json.dumps(to_json())``; no whole document is held in memory.
        """
        if format == "json":
            pieces = _json_pieces(self._terms)
        elif format in ("text", "latex"):
            pieces = _text_pieces(self._terms, format == "latex")
        else:
            raise ValueError(f"unknown format {format!r}")
        stream.writelines(pieces)

    def render(self) -> str:
        return "".join(_text_pieces(self._terms, False))

    __str__ = render

    def latex(self) -> str:
        return "".join(_text_pieces(self._terms, True))

    def __repr__(self) -> str:
        return f"MhsExpression({self.render()!r})"


def _format_factors(factors: tuple[Composition, ...], latex: bool = False) -> str:
    if len(factors) == 1:
        grouped = ((factors[0], 1),)  # nothing to count or sort
    else:
        counts = Counter(factors)
        grouped = [(comp, counts[comp]) for comp in sorted(counts, key=Composition.sort_key)]
    pieces = []
    for comp, mult in grouped:
        if latex:
            if comp.depth >= 2 and set(comp) == {1}:
                body = rf"\{{1\}}^{comp.depth}"
            else:
                body = str(comp)
            head = "H_n" if mult == 1 else f"H_n^{mult}"
            pieces.append(f"{head}({body})")
        else:
            head = f"H({comp})"
            pieces.append(head if mult == 1 else f"{head}^{mult}")
    sep = "" if latex else "*"
    return sep.join(pieces)


def _coefficient_head(coeff: NPolynomial, bare: bool, latex: bool) -> str:
    """What a term's text holds before its factors: the coefficient, signed and joined.

    ``bare`` marks the empty key, whose term is the coefficient alone.
    """
    fmt = NPolynomial.latex if latex else str
    if bare:
        return fmt(coeff)
    times = "" if latex else "*"
    if coeff.coeffs == (1,):
        return ""
    if coeff.coeffs == (-1,):
        return "-"
    if sum(1 for c in coeff.coeffs if c) == 1:
        return f"{fmt(coeff)}{times}"
    if coeff.coeffs[-1] < 0:
        return f"-({fmt(-coeff)}){times}"
    return f"({fmt(coeff)}){times}"


def _text_pieces(terms: dict, latex: bool) -> Iterator[str]:
    """The text (or LaTeX) of an expression, one string per term in canonical order.

    A term after the first carries its separator: a leading minus becomes
    " - " ("-" in LaTeX), anything else follows " + " ("+").  Each distinct
    coefficient's head is formatted once, keyed by identity: a closed form
    shares one NPolynomial per distinct value, and an id costs no Fraction
    hash.  ``terms`` holds every coefficient meanwhile, so no id is reused.
    """
    minus, plus = ("-", "+") if latex else (" - ", " + ")
    keys = _canonical_keys(terms)
    first = next(keys, None)
    if first is None:
        yield "0"
        return
    yield _coefficient_head(terms[first], not first, latex) + _format_factors(first, latex)

    def joined(head: str) -> str:
        return minus + head[1:] if head.startswith("-") else plus + head

    heads: dict[int, str] = {}
    for key in keys:
        coeff = terms[key]
        if not key:  # the bare constant term
            yield joined(_coefficient_head(coeff, True, latex))
            continue
        head = heads.get(id(coeff))
        if head is None:
            head = heads[id(coeff)] = joined(_coefficient_head(coeff, False, latex))
        yield head + _format_factors(key, latex)


def _json_pieces(terms: dict) -> Iterator[str]:
    """``json.dumps`` of the expression's ``to_json()``, one string per term.

    Each distinct coefficient's JSON list is encoded once (keyed by identity,
    as in :func:`_text_pieces`); a factor's text is digits and commas, so it
    is quoted as it stands.
    """
    yield "["
    heads: dict[int, str] = {}
    sep = ""
    for key in _canonical_keys(terms):
        coeff = terms[key]
        head = heads.get(id(coeff))
        if head is None:
            head = heads[id(coeff)] = f'{{"coeff": {json.dumps(coeff.to_json())}, "factors": '
        factors = '["' + '", "'.join(map(str, key)) + '"]' if key else "[]"
        yield f"{sep}{head}{factors}}}"
        sep = ", "
    yield "]"


def _combine(pairs: Iterable[tuple[object, MhsExpression]]) -> MhsExpression:
    """Sum of scale * expr over (scale, expr) pairs; a scale of None means 1.

    The accumulator for every ``total = total + c * e`` loop: each input term
    is merged once into one fresh dict, and no input dict is written to.
    """
    return MhsExpression._from_canonical(
        (key, coeff if scale is None else coeff * scale)
        for scale, expr in pairs
        for key, coeff in expr._terms.items()
    )


def H(*parts: int) -> MhsExpression:
    """The single-symbol expression H(parts); H() is the constant 1."""
    return MhsExpression.symbol(Composition(parts))


def expr_mul(e1: MhsExpression, e2: MhsExpression) -> MhsExpression:
    """Formal product in the free commutative algebra on MHS symbols."""
    return e1 * e2


def linearize(e: MhsExpression) -> MhsExpression:
    """Module-level alias for :meth:`MhsExpression.linearize`."""
    return e.linearize()


def eval_expr(e: MhsExpression, n: int) -> Fraction:
    """Module-level alias for :meth:`MhsExpression.eval`."""
    return e.eval(n)


class ExpressionConsistencyError(AssertionError):
    """Symbolic and numeric equality tests disagreed; indicates a bug."""


def _exact_quotient(a: int, b: int) -> int:
    """a / b, which must be an integer: a remainder raises ArithmeticError."""
    quotient, remainder = divmod(a, b)
    if remainder:
        raise ArithmeticError(f"{b} does not divide {a}")
    return quotient


def _scaled_values(
    exprs: Iterable[MhsExpression], nmax: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(D_n / D_(n-1), the integers D_n * e(n) of every e in ``exprs``), n = 0, 1, ..., nmax.

    Row n has the scale D_n = den * L_n^W, where L_n = lcm(1..n) (L_0 = 1),
    W is the largest weight of a term (the summed weights of its factors)
    and den the lcm of the coefficient denominators.  Each prefix s of a
    symbol keeps one integer R(s) = L_n^wt(s) * H_n(s), advanced from n - 1
    to n by R(s) += R(s') * (L_n/n)^(s_d), longest symbols first, so that
    each prefix s' is still at n - 1.  The scale grows only at a prime power
    n = q^k, by q = n / gcd(L_(n-1), n): there each R(s) is first multiplied
    by q^wt(s), and the growth D_n / D_(n-1) is q^W (1 elsewhere and at
    n = 0).  A term c(n) * prod_j H_n(f_j) of weight w contributes
    den * c(n) * L_n^(W - w) * prod_j R(f_j).  So the integers at n have
    about 1.44 * n * W bits, whatever nmax is.  There is no Fraction, every
    division is exact, and the state is one integer per prefix symbol.
    """
    terms = [e._terms for e in exprs]
    den = math.lcm(*(c.denominator for t in terms for p in t.values() for c in p.coeffs))
    top = max((sum(map(sum, key)) for t in terms for key in t), default=0)
    # Deepest first, so every symbol is stepped before its prefix.
    order = sorted(
        {f[:d] for t in terms for key in t for f in key for d in range(len(f) + 1)},
        key=len,
        reverse=True,
    )
    index = {s: i for i, s in enumerate(order)}
    steps = [(i, index[s[:-1]], s[-1]) for i, s in enumerate(order) if s]
    weights = [sum(s) for s in order]
    state = [0 if s else 1 for s in order]
    # Per expression, one group per term weight w: W - w and the terms of
    # weight w, each as (den * c(n) highest power first, factor state indices).
    scaled = []
    for t in terms:
        by_weight: dict[int, list] = {}
        for key, poly in t.items():
            coeffs = [c.numerator * _exact_quotient(den, c.denominator) for c in poly.coeffs]
            term = (coeffs[::-1], [index[f] for f in key])
            by_weight.setdefault(sum(map(sum, key)), []).append(term)
        scaled.append([(top - w, group) for w, group in by_weight.items()])
    exponents = {e for _, _, e in steps}
    lcm = growth = 1
    scales = {gap: 1 for groups in scaled for gap, _ in groups}  # gap -> L_n^gap
    for n in range(nmax + 1):
        if n:
            q = n // math.gcd(lcm, n)  # L_n / L_(n-1): the prime q at n = q^k, else 1
            growth = q**top
            if q > 1:
                lcm *= q
                state = [r * q**w for r, w in zip(state, weights)]
                scales = {gap: lcm**gap for gap in scales}
            step = _exact_quotient(lcm, n)
            powers = {e: step**e for e in exponents}
            for i, j, e in steps:
                state[i] += state[j] * powers[e]
        values = []
        for groups in scaled:
            total = 0
            for gap, group in groups:
                subtotal = 0
                for coeffs, factors in group:
                    value = 0
                    for c in coeffs:
                        value = value * n + c
                    if value:
                        for f in factors:
                            value *= state[f]
                        subtotal += value
                total += subtotal * scales[gap]
            values.append(total)
        yield growth, tuple(values)


def expr_equal(e1: MhsExpression, e2: MhsExpression) -> bool:
    """Decide e1 == e2 by linearizing the difference.

    The symbolic test is the decision procedure.  As a guard against
    implementation bugs both sides are also evaluated at n = 0, ..., D + M
    (D = max coefficient degree, M = number of distinct symbols) on the
    exact integer scale of :func:`_scaled_values`; both sides share the
    scale at each n, so its growth is not needed.  If the two verdicts ever
    disagree an :class:`ExpressionConsistencyError` is raised.
    """
    lin1 = e1.linearize()
    lin2 = e2.linearize()
    symbolic = (lin1 - lin2).is_zero()
    degree = max(lin1.max_coeff_degree(), lin2.max_coeff_degree(), 0)
    symbols = lin1.single_symbols() | lin2.single_symbols()
    points = _scaled_values([e1, e2], degree + len(symbols))
    numeric = all(v1 == v2 for _, (v1, v2) in points)
    if numeric != symbolic:
        raise ExpressionConsistencyError(
            f"symbolic verdict {symbolic} but numeric verdict {numeric} "
            f"for {e1!r} vs {e2!r}"
        )
    return symbolic
