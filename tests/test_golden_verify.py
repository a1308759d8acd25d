"""``mhs verify`` output pinned byte for byte, as text and as JSON.

Each golden file ``tests/golden/verify_<name>.<ext>`` holds what the command
wrote: stdout, then stderr (empty, since every case passes).  The cases
cover every suite over the default range, a JSON sweep of all suites, the
theorem's power pass beyond a = -6..6 and over a range without a = 1..3, a
``--claim`` selection at primes above 100, the corollaries alone on the
chunks of the smallest primes, the corollaries and the theorem at a prime
of two blocks, every suite on one chunk whose first prime is one block and
whose last is two, and the theorem for -40 <= a <= 40.  A JSON sweep of
several chunks of primes is pinned by its length and sha256, as the
context of one prime at a time wrote it.
"""

import hashlib
import pathlib

import pytest

from mhs.cli import main
from mhs.congruences import prime_chunks
from mhs.residues import primes_in_range

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
    # a = 1..3 lie outside the range: the range's power pass forms them too
    "theorem_negative": [
        "--suite", "theorem", "--amin", "-9", "--amax", "-7", "--pmin", "7", "--pmax", "61",
    ],
    # the binomials alone, with no product sum, on chunks from p = 7: F_c's rows j <= 4
    "corollary_small_primes_json": [
        "--suite", "corollary", "--pmin", "7", "--pmax", "61", "--format", "json",
    ],
    # p > 2^14: Wolstenholme's product and the central-binomial sum run over two blocks
    "corollary_two_blocks_json": [
        "--suite", "corollary", "--pmin", "16411", "--pmax", "16411", "--format", "json",
    ],
    # the power pass runs first and builds the first block, which the later passes share
    "theorem_two_blocks_json": [
        "--suite", "theorem", "--pmin", "16411", "--pmax", "16411", "--format", "json",
    ],
    # one chunk from 16381, one block, to 16411, two: a block ends between the primes
    "all_block_edge_json": [
        "--suite", "all", "--pmin", "16381", "--pmax", "16411", "--format", "json",
    ],
    # a far beyond the moments' six terms, both signs: every sum C(a, r) c_r of each route
    "theorem_far_a_json": [
        "--suite", "theorem", "--amin", "-40", "--amax", "40", "--pmin", "101", "--pmax", "101",
        "--format", "json",
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


# (bytes, sha256) of `verify --suite all --pmin 7 --pmax 199 --format json`
SWEEP_7_199 = (336022, "961fbe0939a82deee9bbfd41b37f0a7ccca2f70c4d9003db5c4bc53e93896f47")


def test_a_sweep_of_several_chunks_matches_its_digest(capsys):
    assert len(prime_chunks(primes_in_range(7, 199))) > 1
    code = main(["verify", "--suite", "all", "--pmin", "7", "--pmax", "199", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    out = captured.out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == SWEEP_7_199
