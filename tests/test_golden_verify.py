"""``mhs verify`` output pinned byte for byte, as text and as JSON.

Each golden file ``tests/golden/verify_<name>.<ext>`` holds what the command
wrote: stdout, then stderr (empty, since every case passes).  The cases
cover every suite over the default range, a JSON sweep of all suites, the
theorem's power pass beyond a = -6..6 and over a range without a = 1..3, a
``--claim`` selection at primes above 100, and the corollaries at a prime
of two blocks.
"""

import pathlib

import pytest

from mhs.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# name: command-line arguments after "verify"; the golden's extension follows --format
CASES = {
    "all": ["--suite", "all"],
    "all_json": ["--suite", "all", "--pmin", "7", "--pmax", "13", "--format", "json"],
    "theorem_wide": ["--suite", "theorem", "--amin", "-9", "--amax", "9", "--pmin", "11", "--pmax", "13"],
    "claims_json": [
        "--suite", "congruences", "--claim", "S:2,1", "--claim", "H:1,2",
        "--pmin", "101", "--pmax", "103", "--format", "json",
    ],
    # a = 1..3 lie outside the range, so their power sums come from passes of their own
    "theorem_negative": [
        "--suite", "theorem", "--amin", "-9", "--amax", "-7", "--pmin", "7", "--pmax", "61",
    ],
    # p > 2^14: Wolstenholme's product and the central-binomial sum run over two blocks
    "corollary_two_blocks_json": [
        "--suite", "corollary", "--pmin", "16411", "--pmax", "16411", "--format", "json",
    ],
}


@pytest.mark.parametrize("name", CASES)
def test_verify_matches_golden(capsys, name):
    argv = CASES[name]
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    golden = GOLDEN / f"verify_{name}.{'json' if 'json' in argv else 'txt'}"
    assert captured.out + captured.err == golden.read_text(encoding="utf-8")
