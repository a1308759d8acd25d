import json
import pathlib

import pytest

from mhs import tables
from mhs.algebra import NPolynomial
from mhs.tables import column_products, derive_table, reference_cells, row_basis, table_weight

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def table4():
    return derive_table(4)


@pytest.fixture(scope="module")
def table5():
    return derive_table(5)


def test_weight4_matches_reference(table4):
    reference = reference_cells(4)
    for i, row in enumerate(table4.cells):
        for j, cell in enumerate(row):
            b, a = reference[i][j]
            assert cell == NPolynomial((b, a)), (i, j)
    assert table4.errata == []


def test_weight4_spot_cells(table4):
    # row "n", column H(1)^4 and row 1/3 H(3), column H({1}^4)
    assert table4.cells[5][4] == NPolynomial((24,))
    assert table4.cells[2][0] == NPolynomial((0, -1))


def test_weight5_matches_reference(table5):
    reference = reference_cells(5)
    for i, row in enumerate(table5.cells):
        for j, cell in enumerate(row):
            b, a = reference[i][j]
            assert cell == NPolynomial((b, a)), (i, j)
    assert table5.errata == []


def test_weight5_spot_cell(table5):
    # row of the alternating exponential sum, column H(1)^5
    assert table5.cells[0][6] == NPolynomial((60, 120))


def test_cells_are_linear(table4, table5):
    for table in (table4, table5):
        for row in table.cells:
            for cell in row:
                assert cell.degree <= 1


def test_row_basis_shapes():
    assert len(row_basis(4)) == 6
    assert len(row_basis(5)) == 12
    with pytest.raises(ValueError):
        row_basis(6)
    with pytest.raises(ValueError):
        table_weight(3)
    with pytest.raises(ValueError, match="weights 4 and 5 only"):
        reference_cells(3)
    with pytest.raises(ValueError, match="weights 4 and 5 only"):
        column_products(6)


def test_render_formats(table5):
    text = table5.render_text()
    assert "H(1)^5" in text
    assert "120*n + 60" in text
    latex = table5.render_latex()
    assert latex.count(r"\begin{tabular}") == 2
    assert "$120n+60$" in latex
    assert r"H_n(\{1\}^5)" in latex


@pytest.mark.parametrize("weight", [4, 5])
def test_json_matches_benchmark_golden(weight):
    golden = ROOT / "perfbench" / "golden" / f"table_w{weight}.json"
    assert derive_table(weight).dumps() + "\n" == golden.read_text()


@pytest.mark.parametrize("weight", [4, 5])
def test_renderings_match_golden(weight):
    table = derive_table(weight)
    golden = ROOT / "tests" / "golden"
    assert table.render_text() + "\n" == (golden / f"table_w{weight}.txt").read_text()
    assert table.render_latex() + "\n" == (golden / f"table_w{weight}.tex").read_text()


def test_errata_report_disputed_cells(monkeypatch):
    # Two printed cells of column 1 and one of column 3 are perturbed.
    def perturbed(weight):
        cells = reference_cells(weight)
        for i, j in ((0, 1), (3, 1), (2, 3)):
            b, a = cells[i][j]
            cells[i][j] = (b - 1, a - 4)
        return cells

    oracle_columns = []
    real_oracle = tables.partial_sum_oracle

    def counting_oracle(factors, closed, nmax):
        oracle_columns.append(factors)
        return real_oracle(factors, closed, nmax)

    monkeypatch.setattr(tables, "reference_cells", perturbed)
    monkeypatch.setattr(tables, "partial_sum_oracle", counting_oracle)
    table = derive_table(5)

    columns = column_products(5)
    assert oracle_columns == [columns[1], columns[3]]
    assert [(e.row, e.column, e.printed, e.derived, e.oracle_verified) for e in table.errata] == [
        ("sum(-1)^(k-1)/k! H(1)^k, k<=4", "H(1)*H(1,1,1,1)", (0, 1), ("1", "5"), True),
        ("1/2 H(1)H(2)", "H(1)*H(1,1,1,1)", (-2, -7), ("-1", "-3"), True),
        ("1/3 H(3)", "H(1)^2*H(1,1,1)", (0, -2), ("1", "2"), True),
    ]
    assert all(e.weight == 5 for e in table.errata)
    # The derived grid itself is untouched by the reference.
    assert table.cells == derive_table(5).cells

    notes = table.render_text().split("\n\n")[-1].splitlines()
    assert notes == [
        "erratum: row sum(-1)^(k-1)/k! H(1)^k, k<=4, column H(1)*H(1,1,1,1): "
        "printed n, derived 5*n + 1",
        "erratum: row 1/2 H(1)H(2), column H(1)*H(1,1,1,1): "
        "printed -7*n - 2, derived -3*n - 1",
        "erratum: row 1/3 H(3), column H(1)^2*H(1,1,1): printed -2*n, derived 2*n + 1",
    ]
    assert json.loads(table.dumps())["errata"] == [
        {
            "weight": 5,
            "row": "sum(-1)^(k-1)/k! H(1)^k, k<=4",
            "column": "H(1)*H(1,1,1,1)",
            "printed": ["0", "1"],
            "derived": ["1", "5"],
            "oracle_verified": True,
        },
        {
            "weight": 5,
            "row": "1/2 H(1)H(2)",
            "column": "H(1)*H(1,1,1,1)",
            "printed": ["-2", "-7"],
            "derived": ["-1", "-3"],
            "oracle_verified": True,
        },
        {
            "weight": 5,
            "row": "1/3 H(3)",
            "column": "H(1)^2*H(1,1,1)",
            "printed": ["0", "-2"],
            "derived": ["1", "2"],
            "oracle_verified": True,
        },
    ]


def test_errata_carry_the_oracle_verdict(monkeypatch):
    # A closed form that fails the oracle is reported as unverified.
    def perturbed(weight):
        cells = reference_cells(weight)
        cells[0][0] = (5, 5)
        return cells

    monkeypatch.setattr(tables, "reference_cells", perturbed)
    monkeypatch.setattr(tables, "partial_sum_oracle", lambda *args: False)
    (erratum,) = derive_table(4).errata
    assert (erratum.column, erratum.printed) == ("H(1,1,1,1)", (5, 5))
    assert erratum.oracle_verified is False
