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
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

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


@dataclass(frozen=True)
class TableRow:
    """First-column basis entry with its text and LaTeX labels."""

    label: str
    latex: str
    basis: MhsExpression


def _alternating_exp_row(kmax: int) -> MhsExpression:
    return _combine(
        (Fraction((-1) ** (k - 1), factorial(k)), H(1) ** k) for k in range(1, kmax + 1)
    )


def row_basis(weight: int) -> list[TableRow]:
    """The fixed row basis used by the weight-4 and weight-5 grids."""
    if weight not in (4, 5):
        raise ValueError("tables are shipped for weights 4 and 5 only")
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


def _blocks(partition: tuple[int, ...]) -> tuple[Composition, ...]:
    return tuple(Composition((1,) * part) for part in partition)


# Column order follows the published layout; weight 5 is split 4 + 3 across
# two sub-tables.
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

_SPLITS = {4: [5], 5: [4, 3]}

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
    if weight not in _COLUMNS:
        raise ValueError("tables are shipped for weights 4 and 5 only")
    return [_blocks(partition) for partition in _COLUMNS[weight]]


def reference_cells(weight: int) -> list[list[tuple[int, int]]]:
    """Published (b, a) grid for the given weight."""
    return [list(row) for row in _REFERENCE[weight]]


@dataclass(frozen=True)
class Erratum:
    """A derived cell that disagrees with the published reference value."""

    weight: int
    row: str
    column: str
    printed: tuple[int, int]
    derived: tuple[str, str]
    oracle_verified: bool

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "row": self.row,
            "column": self.column,
            "printed": [str(x) for x in self.printed],
            "derived": list(self.derived),
            "oracle_verified": self.oracle_verified,
        }


@dataclass
class DerivedTable:
    weight: int
    columns: list[tuple[Composition, ...]]
    rows: list[TableRow]
    cells: list[list[NPolynomial]]  # rows x columns
    errata: list[Erratum] = field(default_factory=list)

    def column_label(self, index: int) -> str:
        return _format_factors(self.columns[index])

    def column_latex(self, index: int) -> str:
        return _format_factors(self.columns[index], latex=True)

    def render_text(self) -> str:
        blocks = []
        start = 0
        for width in _SPLITS[self.weight]:
            col_range = range(start, start + width)
            start += width
            header = ["sum f_k - (n+1) f_n"] + [self.column_label(i) for i in col_range]
            grid = [header]
            for row, cells in zip(self.rows, self.cells):
                grid.append([row.label] + [str(cells[i]) for i in col_range])
            widths = [max(len(line[i]) for line in grid) for i in range(len(header))]
            lines = [
                "  ".join(entry.ljust(w) for entry, w in zip(line, widths)).rstrip()
                for line in grid
            ]
            lines.insert(1, "-" * max(len(line) for line in lines))
            blocks.append("\n".join(lines))
        out = "\n\n".join(blocks)
        if self.errata:
            notes = "\n".join(
                f"erratum: row {e.row}, column {e.column}: printed "
                f"{e.printed[1]}*n+{e.printed[0]}, derived {e.derived[1]}*n+{e.derived[0]}"
                for e in self.errata
            )
            out += "\n\n" + notes
        return out

    def render_latex(self) -> str:
        blocks = []
        start = 0
        for width in _SPLITS[self.weight]:
            col_range = range(start, start + width)
            start += width
            colspec = "|" + "c|" * (width + 1)
            lines = [rf"\begin{{tabular}}{{{colspec}}}\hline"]
            header = r"$\sum_{k=1}^n f_k-(n+1)f_n$"
            for i in col_range:
                header += rf"&$\displaystyle {self.column_latex(i)}$"
            lines.append(header + r"\\\hline")
            for row, cells in zip(self.rows, self.cells):
                body = f"${row.latex}$"
                for i in col_range:
                    body += f"&${cells[i].latex()}$"
                lines.append(body + r"\\\hline")
            lines.append(r"\end{tabular}")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks)

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "columns": [
                {
                    "product": self.column_label(i),
                    "factors": [str(c) for c in factors],
                }
                for i, factors in enumerate(self.columns)
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

    @classmethod
    def from_json(cls, data: dict) -> "DerivedTable":
        weight = data["weight"]
        columns = [
            tuple(Composition.parse(s) for s in col["factors"])
            for col in data["columns"]
        ]
        rows = row_basis(weight)
        cells = [
            [NPolynomial((Fraction(b), Fraction(a))) for b, a in row["cells"]]
            for row in data["rows"]
        ]
        table = cls(weight=weight, columns=columns, rows=rows, cells=cells)
        table.errata = [
            Erratum(
                weight=e["weight"],
                row=e["row"],
                column=e["column"],
                printed=tuple(int(x) for x in e["printed"]),
                derived=tuple(e["derived"]),
                oracle_verified=e["oracle_verified"],
            )
            for e in data["errata"]
        ]
        return table

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def derive_table(weight: int) -> DerivedTable:
    """Recompute the full coefficient grid and diff it against the reference."""
    rows = row_basis(weight)
    columns = column_products(weight)
    basis = [row.basis for row in rows]
    reference = reference_cells(weight)

    cells: list[list[NPolynomial]] = [[None] * len(columns) for _ in rows]
    table = DerivedTable(weight=weight, columns=columns, rows=rows, cells=cells)
    for j, factors in enumerate(columns):
        target = table_form(factors, sum_product(factors))
        column_cells = rebase(target, basis, max_degree=1, require_unique=True)
        for i, cell in enumerate(column_cells):
            cells[i][j] = cell
            printed = reference[i][j]
            if cell != NPolynomial((printed[0], printed[1])):
                product = MhsExpression.monomial(1, factors)
                closed = _combine([(N + 1, product), *zip(column_cells, basis)])
                table.errata.append(
                    Erratum(
                        weight=weight,
                        row=rows[i].label,
                        column=table.column_label(j),
                        printed=printed,
                        derived=(str(cell.coeff(0)), str(cell.coeff(1))),
                        oracle_verified=partial_sum_oracle(factors, closed, ORACLE_POINTS),
                    )
                )
    return table


def table_weight(weight: int) -> DerivedTable:
    """Alias with the operation's public name."""
    return derive_table(weight)
