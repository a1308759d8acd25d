"""The JSON report, written check by check, against json.dumps of the whole list.

``verify --format json`` writes each check as it is encoded rather than
building the whole text first.  Its bytes must stay those of
``json.dumps([c.to_json() for c in checks])`` plus a newline, over the same
``registry.run`` results, and they must reach whatever ``sys.stdout`` is at
the time: pytest's capture and ``contextlib.redirect_stdout`` both.
"""

import contextlib
import functools
import io
import json

import pytest

from mhs import binomial_sums, cli, registry
from mhs.report import CheckResult, write_json


def _dumped(argv: list) -> tuple[str, int]:
    """json.dumps of the checks a verify command line runs, and its exit code."""
    args = cli.build_parser().parse_args(argv)
    selection, primes = registry.select(args.suite, args.claim, args)
    checks = registry.run(selection, primes, functools.partial(cli._fan_out, jobs=1))
    return json.dumps([c.to_json() for c in checks]) + "\n", 0 if all(c.passed for c in checks) else 1


def _assert_report_matches(capsys, argv: list) -> str:
    expected, code = _dumped(argv)
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""
    return expected


@pytest.mark.parametrize(
    "ranges",
    [
        ["--suite", "identities", "--nmax", "6"],  # string sides
        ["--suite", "congruences", "--pmin", "7", "--pmax", "61"],
        ["--suite", "theorem", "--pmin", "7", "--pmax", "31", "--amin", "-3", "--amax", "4"],
        ["--suite", "corollary", "--pmin", "7", "--pmax", "101"],
        ["--suite", "staver", "--nmax", "12"],  # null sides
        ["--suite", "all", "--pmin", "7", "--pmax", "43", "--nmax", "5"],
    ],
)
def test_verify_json_is_json_dumps_of_the_checks(capsys, ranges):
    text = _assert_report_matches(capsys, ["verify", *ranges, "--format", "json"])
    assert json.loads(text)


def test_verify_json_of_claim_subsets_and_two_jobs(capsys):
    subset = ["--claim", "S:2,1", "--claim", "wolstenholme", "--claim", "identity:S:1",
              "--claim", "staver:n=2", "--claim", "binomial-power-sum-expansion:a=-2"]
    argv = ["verify", "--suite", "all", "--pmin", "11", "--pmax", "47", "--format", "json"]
    expected = _assert_report_matches(capsys, argv + subset)
    assert cli.main(argv + subset + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == expected
    whole = _assert_report_matches(capsys, argv)
    assert cli.main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == whole


def test_verify_json_of_a_failing_check(monkeypatch, capsys):
    real = binomial_sums._closed_form
    monkeypatch.setattr(binomial_sums, "_closed_form", lambda a, p, mod, x: real(a, p, mod, x) + 1)
    text = _assert_report_matches(
        capsys, ["verify", "--suite", "theorem", "--pmin", "7", "--pmax", "13", "--format", "json"]
    )
    failed = [c for c in json.loads(text) if not c["pass"]]
    assert failed and {c["claim-id"].split(":")[0] for c in failed} == {"binomial-power-sum"}
    assert '"pass": false' in text


def test_verify_json_reaches_a_redirected_stdout(capsys):
    argv = ["verify", "--suite", "all", "--pmin", "7", "--pmax", "13", "--nmax", "4",
            "--format", "json"]
    expected, _ = _dumped(argv)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    assert buffer.getvalue() == expected
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "checks",
    [
        [],
        [CheckResult("identity:S:1", None, None, "H(1) * n - \"q\"\n", "é ☃ \\ \t", True)],
        [
            CheckResult("H:1", 7, 2401, 0, 0, True),
            CheckResult("H:1", 11, 14641, 3**200, -5, False),
            CheckResult("staver:n=1", None, None, None, None, True),
            CheckResult("H:1", 13, 28561, 1, 2, False),
        ],
    ],
)
def test_write_json_matches_json_dumps(checks):
    buffer = io.StringIO()
    write_json(checks, buffer)
    assert buffer.getvalue() == json.dumps([c.to_json() for c in checks]) + "\n"
