"""Coefficient tables for sums of products of homogeneous harmonic sums.

For a column product f_n = prod of H_n({1}^lam_i) over a partition lam of the
weight, the quantity

    sum_{k=1}^n f_k - (n+1) f_n

is a combination of fixed lower-weight basis expressions with coefficients
a*n + b.  `derive_table` recomputes every cell from scratch and diffs the
result against the published reference grid; mismatches are reported as
errata (the derived entry, which is oracle-checked, is authoritative).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .algebra import H, MhsExpression, N, NPolynomial, _combine, _format_factors
from .core import Composition
from .summation import partial_sum_oracle, rebase, sum_product

__all__ = [
    "DerivedTable",
    "Erratum",
    "TableRow",
    "column_products",
    "derive_table",
    "reference_cells",
    "row_basis",
    "table_form",
    "table_weight",
]

ORACLE_POINTS = 30  # brute-force check range for disputed cells


class TableRow(NamedTuple):
    """First-column basis entry with its text and LaTeX labels."""

    label: str
    latex: str
    basis: MhsExpression


def _alternating_exp_row(kmax: int) -> MhsExpression:
    return _combine(
        (Fraction((-1) ** (k - 1), factorial(k)), H(1) ** k) for k in range(1, kmax + 1)
    )


def _require_shipped(weight: int) -> None:
    if weight not in (4, 5):
        raise ValueError("tables are shipped for weights 4 and 5 only")


def row_basis(weight: int) -> list[TableRow]:
    """The fixed row basis used by the weight-4 and weight-5 grids."""
    _require_shipped(weight)
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    quarter = Fraction(1, 4)
    rows = [
        TableRow(
            f"sum(-1)^(k-1)/k! H(1)^k, k<={weight - 1}",
            rf"\sum_{{k=1}}^{weight - 1}{{(-1)^{{k-1}}\over k!}}H_n^k(1)",
            _alternating_exp_row(weight - 1),
        ),
        TableRow("1/2 H(2)", r"{1\over 2}H_n(2)", half * H(2)),
        TableRow("1/3 H(3)", r"{1\over 3}H_n(3)", third * H(3)),
        TableRow("1/2 H(1)H(2)", r"{1\over 2}H_n(1)H_n(2)", half * H(1) * H(2)),
        TableRow("H(1,2)", r"H_n(1,2)", H(1, 2)),
    ]
    if weight == 5:
        rows += [
            TableRow("1/4 H(4)", r"{1\over 4}H_n(4)", quarter * H(4)),
            TableRow("1/8 H(2)^2", r"{1\over 8}H^2_n(2)", Fraction(1, 8) * H(2) ** 2),
            TableRow(
                "1/4 H(1)^2 H(2)",
                r"{1\over 4}H_n^2(1)H_n(2)",
                quarter * H(1) ** 2 * H(2),
            ),
            TableRow("1/3 H(1)H(3)", r"{1\over 3}H_n(1)H_n(3)", third * H(1) * H(3)),
            TableRow("H(1,3)", r"H_n(1,3)", H(1, 3)),
            TableRow("H(1,1,2)", r"H_n(1,1,2)", H(1, 1, 2)),
        ]
    rows.append(TableRow("n", "n", MhsExpression.constant(N)))
    return rows


def table_form(factors, closed: MhsExpression) -> MhsExpression:
    """sum_{k<=n} f_k - (n+1) f_n, which the row basis spans, given the sum ``closed``."""
    return closed - (N + 1) * MhsExpression.monomial(1, factors)


# Column order follows the published layout.
_COLUMNS = {
    4: [(4,), (2, 2), (3, 1), (2, 1, 1), (1, 1, 1, 1)],
    5: [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ],
}

# Column ranges of each published sub-table: weight 5 is split 4 + 3.
_SPLITS = {4: [range(5)], 5: [range(4), range(4, 7)]}

# Reference cells (b, a) for the polynomial a*n + b, row-major.
_REFERENCE = {
    4: [
        [(0, -1), (-2, -6), (-1, -4), (-5, -12), (-12, -24)],
        [(0, -1), (-2, -2), (-1, -2), (-3, -2), (-4, 0)],
        [(0, -1), (1, 0), (-1, -1), (1, 0), (3, 0)],
        [(0, 1), (0, 2), (1, 2), (1, 2), (0, 0)],
        [(0, 0), (1, 0), (0, 0), (1, 0), (2, 0)],
        [(1, 0), (6, 0), (4, 0), (12, 0), (24, 0)],
    ],
    5: [
        [(0, 1), (1, 5), (3, 10), (7, 20), (12, 30), (27, 60), (60, 120)],
        [(0, 1), (1, 3), (3, 4), (5, 6), (8, 6), (13, 6), (20, 0)],
        [(0, 1), (1, 2), (0, 1), (1, 2), (-3, 0), (-6, 0), (-15, 0)],
        [(0, -1), (-1, -3), (-1, -4), (-3, -6), (-2, -6), (-3, -6), (0, 0)],
        [(0, 0), (0, 0), (-1, 0), (-1, 0), (-3, 0), (-5, 0), (-10, 0)],
        [(0, 1), (1, 1), (-1, 0), (-1, 0), (-2, 0), (-3, 0), (-4, 0)],
        [(0, -1), (-1, -1), (1, -2), (1, 0), (4, -2), (9, 0), (20, 0)],
        [(0, 1), (1, 3), (1, 4), (3, 6), (2, 6), (3, 6), (0, 0)],
        [(0, -1), (-1, -2), (0, -1), (-1, -2), (0, 0), (0, 0), (0, 0)],
        [(0, 0), (0, 0), (0, 0), (0, 0), (1, 0), (2, 0), (5, 0)],
        [(0, 0), (0, 0), (1, 0), (1, 0), (3, 0), (5, 0), (10, 0)],
        [(-1, 0), (-5, 0), (-10, 0), (-20, 0), (-30, 0), (-60, 0), (-120, 0)],
    ],
}


def column_products(weight: int) -> list[tuple[Composition, ...]]:
    """Factor multisets of the column products, in published order."""
    _require_shipped(weight)
    return [tuple(Composition((1,) * part) for part in parts) for parts in _COLUMNS[weight]]


def reference_cells(weight: int) -> list[list[tuple[int, int]]]:
    """Published (b, a) grid for the given weight."""
    _require_shipped(weight)
    return [list(row) for row in _REFERENCE[weight]]


class Erratum(NamedTuple):
    """A derived cell that disagrees with the published reference value."""

    weight: int
    row: str
    column: str
    printed: tuple[int, int]
    derived: tuple[str, str]
    oracle_verified: bool

    def to_json(self) -> dict:
        printed = [str(x) for x in self.printed]
        return dict(self._asdict(), printed=printed, derived=list(self.derived))


class DerivedTable(NamedTuple):
    """A derived grid with the errata found against the published one."""

    weight: int
    columns: list[tuple[Composition, ...]]
    rows: list[TableRow]
    cells: list[list[NPolynomial]]  # rows x columns
    errata: list[Erratum]

    def _grids(self, corner: str, column, row, cell) -> list[list[list[str]]]:
        """Each published sub-table as lines of entries, header first.

        ``column``, ``row`` and ``cell`` format a column's factors, a TableRow
        and an NPolynomial; ``corner`` heads the row labels.
        """
        return [
            [[corner] + [column(self.columns[j]) for j in split]]
            + [[row(r)] + [cell(cells[j]) for j in split]
               for r, cells in zip(self.rows, self.cells)]
            for split in _SPLITS[self.weight]
        ]

    def render_text(self) -> str:
        blocks = []
        for grid in self._grids("sum f_k - (n+1) f_n", _format_factors, lambda r: r.label, str):
            widths = [max(map(len, entries)) for entries in zip(*grid)]
            lines = [
                "  ".join(entry.ljust(w) for entry, w in zip(line, widths)).rstrip()
                for line in grid
            ]
            lines.insert(1, "-" * max(map(len, lines)))
            blocks.append("\n".join(lines))
        if self.errata:
            blocks.append("\n".join(
                f"erratum: row {e.row}, column {e.column}: "
                f"printed {NPolynomial(e.printed)}, derived {NPolynomial(e.derived)}"
                for e in self.errata
            ))
        return "\n\n".join(blocks)

    def render_latex(self) -> str:
        blocks = []
        for grid in self._grids(
            r"$\sum_{k=1}^n f_k-(n+1)f_n$",
            lambda factors: rf"$\displaystyle {_format_factors(factors, latex=True)}$",
            lambda r: f"${r.latex}$",
            lambda c: f"${c.latex()}$",
        ):
            colspec = "|" + "c|" * len(grid[0])
            lines = [rf"\begin{{tabular}}{{{colspec}}}\hline"]
            lines += ["&".join(line) + r"\\\hline" for line in grid]
            lines.append(r"\end{tabular}")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks)

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "columns": [
                {"product": _format_factors(factors), "factors": [str(c) for c in factors]}
                for factors in self.columns
            ],
            "rows": [
                {
                    "label": row.label,
                    "cells": [
                        [str(cell.coeff(0)), str(cell.coeff(1))] for cell in cells
                    ],
                }
                for row, cells in zip(self.rows, self.cells)
            ],
            "errata": [e.to_json() for e in self.errata],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def derive_table(weight: int) -> DerivedTable:
    """Recompute the full coefficient grid and diff it against the reference.

    Each column with a disputed cell has its closed form oracle-checked once.
    """
    rows = row_basis(weight)
    columns = column_products(weight)
    basis = [row.basis for row in rows]
    by_column = [
        rebase(table_form(factors, sum_product(factors)), basis, max_degree=1, require_unique=True)
        for factors in columns
    ]
    reference = reference_cells(weight)
    errata = []
    for j, (factors, column_cells) in enumerate(zip(columns, by_column)):
        disputed = [i for i, c in enumerate(column_cells) if c != NPolynomial(reference[i][j])]
        if not disputed:
            continue
        closed = _combine([(N + 1, MhsExpression.monomial(1, factors)), *zip(column_cells, basis)])
        verified = partial_sum_oracle(factors, closed, ORACLE_POINTS)
        errata += [
            Erratum(
                weight=weight,
                row=rows[i].label,
                column=_format_factors(factors),
                printed=reference[i][j],
                derived=(str(column_cells[i].coeff(0)), str(column_cells[i].coeff(1))),
                oracle_verified=verified,
            )
            for i in disputed
        ]
    return DerivedTable(weight, columns, rows, [list(cells) for cells in zip(*by_column)], errata)


def table_weight(weight: int) -> DerivedTable:
    """Alias with the operation's public name."""
    return derive_table(weight)
