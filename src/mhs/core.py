"""Exact multiple harmonic sums over the rationals.

A multiple harmonic sum is indexed by a composition s = (s1, ..., sd) of
positive integers and an upper bound n:

    H_n(s) = sum over 1 <= k1 < k2 < ... < kd <= n of 1 / (k1^s1 * ... * kd^sd)

The first entry of s binds the smallest index, so H_n(1,2) and H_n(2,1) are
different numbers.  The empty composition gives the empty product, H_n(()) = 1,
and H_n(s) = 0 whenever s has more parts than there are indices available.

Everything here is exact; values are `fractions.Fraction`.
"""

from __future__ import annotations

import itertools
import operator
import re
import threading
from fractions import Fraction
from typing import Iterable

__all__ = [
    "Composition",
    "CompositionError",
    "composition_parse",
    "eval_mhs",
    "eval_mhs_direct",
    "mhs_prefix_values",
    "mhs_row",
]


class CompositionError(ValueError):
    """Malformed composition text or a non-positive part."""


_PART_RE = re.compile(r"(\d+)(?:\^(\d+))?")


class Composition(tuple):
    """Ordered exponent vector (s1, ..., sd) of a multiple harmonic sum.

    Immutable and hashable, so compositions serve directly as dict keys.
    ``depth`` is the number of parts, ``weight`` their sum; the empty
    composition (depth 0) is the unit of the stuffle algebra.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        if type(parts) is cls:
            return parts
        try:
            normalized = tuple(operator.index(x) for x in parts)
        except TypeError as exc:
            raise CompositionError(f"composition parts must be integers: {parts!r}") from exc
        if any(x < 1 for x in normalized):
            raise CompositionError(f"composition parts must be >= 1: {normalized!r}")
        return tuple.__new__(cls, normalized)

    @property
    def depth(self) -> int:
        return len(self)

    @property
    def weight(self) -> int:
        return sum(self)

    def sort_key(self) -> tuple:
        """Canonical ordering key: weight, then depth, then parts."""
        return (self.weight, self.depth, tuple(self))

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse comma-separated parts; ``m^d`` expands to m repeated d times.

        The empty string parses to the empty composition.
        """
        text = text.strip()
        if not text:
            return cls()
        parts: list[int] = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            m = _PART_RE.fullmatch(chunk)
            if m is None:
                raise CompositionError(f"cannot parse composition part {chunk!r}")
            value = int(m.group(1))
            count = int(m.group(2)) if m.group(2) is not None else 1
            if value < 1:
                raise CompositionError(f"composition parts must be >= 1: {value}")
            parts.extend([value] * count)
        return cls(parts)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self)

    def __repr__(self) -> str:
        return f"Composition({tuple(self)!r})"


def composition_parse(text: str) -> Composition:
    """Parse a composition from its text form (inverse of ``str``)."""
    return Composition.parse(text)


# Exact rows [H_0(s), H_1(s), ...] keyed by composition.  The bound is on the
# number of compositions, not on n: a row only ever grows.
_ROW_LIMIT = 1024
_exact_rows: dict[tuple, list] = {}
_exact_lock = threading.Lock()  # growth appends in place: one writer at a time
_ONE, _ZERO = Fraction(1), Fraction(0)

def mhs_row(s: tuple, n: int, rows: dict, context=None) -> list:
    """The row [H_0(s), ..., H_m(s)], m >= n, kept in ``rows`` by composition.

    Grows the row of each prefix s[:d] in place, shortest first, by
    H_j(s[:d]) = H_{j-1}(s[:d]) + H_{j-1}(s[:d-1]) * j^(-s_d): O(depth * n)
    steps over Q (``context`` None) or over Z / context.mod, with no
    recursion.  A residue row reads the factors j^(-s_d), j < context.p,
    from ``context.inverse_powers(s_d)`` (a congruences.PrimeContext), so
    it costs multiplications only; n >= context.p raises ValueError.  The
    returned list is the stored row, not a copy.  The call moves s to the
    end of ``rows`` and drops the first row past _ROW_LIMIT.
    """
    if context is not None and n >= context.p:
        raise ValueError(f"H_{n} needs 1/{context.p}, not a unit mod {context.mod}")
    row = rows.get(s)
    if row is None or len(row) <= n:
        one, zero = (_ONE, _ZERO) if context is None else (1, 0)
        depth = len(s)
        for d in range(depth + 1):
            key = s[:d]
            top = n - depth + d  # s[:d] is read up to H_top(s[:d])
            row = rows.get(key)
            if row is None:
                row = rows[key] = [zero if d else one]
                if len(rows) > _ROW_LIMIT:
                    del rows[next(iter(rows))]
            if d == 0:
                row.extend([one] * (top + 1 - len(row)))
            elif context is None:
                exponent = s[d - 1]
                for j in range(len(row), top + 1):
                    row.append(row[j - 1] + prefix[j - 1] / j**exponent)
            elif len(row) <= top:
                units, mod = context.inverse_powers(s[d - 1]), context.mod
                for j in range(len(row), top + 1):
                    row.append((row[j - 1] + prefix[j - 1] * units[j]) % mod)
            prefix = row
    rows[s] = rows.pop(s, row)  # now the most recently used
    return row


def _exact_row(n: int, s: Iterable[int]) -> list:
    if n < 0:
        raise ValueError("n must be >= 0")
    comp = tuple(Composition(s))
    with _exact_lock:
        return mhs_row(comp, n, _exact_rows)


def eval_mhs(n: int, s: Iterable[int] = ()) -> Fraction:
    """Exact value of H_n(s): entry n of the exact row of s (see :func:`mhs_row`)."""
    return _exact_row(n, s)[n]


def eval_mhs_direct(n: int, s: Iterable[int] = ()) -> Fraction:
    """Brute-force H_n(s): iterate over every increasing index tuple.

    Exponentially slower than :func:`eval_mhs`; kept as an independent oracle.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    comp = Composition(s)
    total = Fraction(0)
    for ks in itertools.combinations(range(1, n + 1), comp.depth):
        denom = 1
        for k, exponent in zip(ks, comp):
            denom *= k**exponent
        total += Fraction(1, denom)
    return total


def mhs_prefix_values(n: int, s: Iterable[int] = ()) -> list[Fraction]:
    """All of H_0(s), H_1(s), ..., H_n(s), as a new list.

    Copies the first n + 1 entries of the row that :func:`eval_mhs` reads,
    so the caller may change the list freely.
    """
    return _exact_row(n, s)[: n + 1]
