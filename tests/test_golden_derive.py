"""``mhs derive`` output pinned byte for byte, in all three formats.

Each golden file ``tests/golden/derive_<name>.<ext>`` holds what the command
wrote: stdout, then stderr (empty unless the command failed).  The products
cover the empty product (``1^0``), long trailing-1 runs, factors of mixed
depth, ``--check`` and both built-in bases, one of which cannot span its
target and fails with exit code 1.
"""

import pathlib

import pytest

from mhs.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

FORMATS = {"text": "txt", "json": "json", "latex": "tex"}

# name: (command-line arguments after "derive", exit code)
CASES = {
    "empty": (["1^0", "--check", "5"], 0),
    "h1": (["1"], 0),
    "h1_h11": (["1;1,1", "--check", "15"], 0),
    "swapped": (["2,1;1,2"], 0),
    "ones30_one": (["1^30;1"], 0),
    "mixed_depths": (["1,1;3,1;3,3,3,3"], 0),
    "w3_on_w4": (["1;1;1", "--basis", "w4"], 1),
    "w4_basis": (["1^4", "--basis", "w4", "--check", "20"], 0),
    "w5_basis": (["1^3;1^2", "--basis", "w5"], 0),
    "w5_ones": (["1;1;1;1;1", "--check", "50"], 0),
    "five_factors": (["2,1;1,2;1;1;3"], 0),
    "ones321": (["1^3;1^2;1", "--check", "30"], 0),
    "four_ones_two": (["4;1^3;2"], 0),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CASES)
def test_derive_matches_golden(capsys, name, fmt):
    argv, expected_code = CASES[name]
    code = main(["derive", *argv, "--format", fmt])
    captured = capsys.readouterr()
    assert code == expected_code
    assert (captured.err == "") == (code == 0)
    golden = GOLDEN / f"derive_{name}.{FORMATS[fmt]}"
    assert captured.out + captured.err == golden.read_text(encoding="utf-8")
