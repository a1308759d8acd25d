import concurrent.futures
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import threading

import pytest

import mhs
from mhs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stuffle_text(capsys):
    code, out, _ = run(capsys, "stuffle", "1", "1,1")
    assert code == 0
    assert out.strip() == "3·(1,1,1) + (2,1) + (1,2)"


def test_stuffle_unit(capsys):
    code, out, _ = run(capsys, "stuffle", "", "2")
    assert code == 0
    assert out.strip() == "(2)"


def test_stuffle_json(capsys):
    code, out, _ = run(capsys, "stuffle", "1", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"1,1": 2, "2": 1}


def test_stuffle_parse_error(capsys):
    code, _, err = run(capsys, "stuffle", "1,x", "2")
    assert code == 2
    assert "cannot parse" in err


def test_derive_simple(capsys):
    code, out, _ = run(capsys, "derive", "1")
    assert code == 0
    assert out.strip() == "(n + 1)*H(1) - n"


def test_derive_with_check(capsys):
    code, out, _ = run(capsys, "derive", "1;1,1", "--check", "15")
    assert code == 0
    assert "verified n=1..15" in out


def test_derive_json(capsys):
    code, out, _ = run(capsys, "derive", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["product"] == ["1"]
    assert {"coeff": ["1", "1"], "factors": ["1"]} in payload["closed_form"]


def test_derive_with_builtin_basis(capsys):
    code, out, _ = run(capsys, "derive", "1^4", "--basis", "w4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    coeffs = payload["basis_coefficients"]
    # first column of the weight-4 grid: -n, -n, -n, n, 0, 1
    assert coeffs[0] == ["0", "-1"]
    assert coeffs[5] == ["1"]


def test_derive_with_builtin_w5_basis(capsys):
    from mhs.algebra import NPolynomial
    from mhs.tables import reference_cells

    code, out, _ = run(capsys, "derive", "1^5", "--basis", "w5", "--format", "json")
    assert code == 0
    # first column of the weight-5 grid, each cell (b, a) read as a*n + b
    column = [NPolynomial(row[0]).to_json() for row in reference_cells(5)]
    assert json.loads(out)["basis_coefficients"] == column


def test_derive_basis_name_is_w4_or_a_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "derive", "1^4", "--basis", "weight4")
    assert code == 2
    assert "weight4" in err


def test_derive_with_basis_file(capsys, tmp_path):
    from mhs.algebra import H

    basis_file = tmp_path / "basis.json"
    basis_file.write_text(json.dumps([(H(1) ** 2).to_json(), H(2).to_json()]))
    code, out, _ = run(capsys, "derive", "1", "--basis", str(basis_file))
    assert code == 1  # sum of H_k(1) is not in the span of that basis


def test_tables_json_and_exit(capsys):
    code, out, _ = run(capsys, "tables", "--weight", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] == 4
    assert payload["errata"] == []
    assert payload["rows"][5]["cells"][4] == ["24", "0"]


def test_tables_bad_weight(capsys):
    with pytest.raises(SystemExit):
        main(["tables", "--weight", "6"])


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "3")
    assert code == 0
    assert out.strip() == "6*H(1,1,1) = H(1)^3 - 3*H(1)*H(2) + 2*H(3)"


def test_verify_staver(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "staver", "--nmax", "12")
    assert code == 0
    assert "12/12 checks passed" in out


def test_verify_writes_no_thread_held_state(capsys, monkeypatch):
    for info in pkgutil.iter_modules(mhs.__path__):
        if info.name != "__main__":
            importlib.import_module(f"mhs.{info.name}")
    fresh = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("mhs."):
            for attr, value in vars(module).items():
                if isinstance(value, threading.local):
                    fresh[name, attr] = threading.local()
                    monkeypatch.setattr(module, attr, fresh[name, attr])
    assert fresh  # the caches of bernoulli, congruences and core
    code, _, _ = run(capsys, "verify", "--suite", "all", "--nmax", "40")
    assert code == 0
    assert {key: vars(local) for key, local in fresh.items() if vars(local)} == {}


def test_verify_congruences_json(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "congruences", "--pmin", "7", "--pmax", "11",
        "--format", "json",
    )
    assert code == 0
    checks = json.loads(out)
    assert len(checks) == 2 * (10 + 18)
    assert all(c["pass"] for c in checks)
    assert set(checks[0]) == {"claim-id", "p", "modulus", "lhs-residue", "rhs-residue", "pass"}


def test_verify_single_claim(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "congruences", "--claim", "S:1,1",
        "--pmin", "7", "--pmax", "13", "--format", "json",
    )
    assert code == 0
    checks = json.loads(out)
    assert [c["claim-id"] for c in checks] == ["S:1,1"] * 3


def test_verify_unknown_claim(capsys):
    code, _, err = run(
        capsys,
        "verify", "--suite", "congruences", "--claim", "S:9,9",
        "--pmin", "7", "--pmax", "7",
    )
    assert code == 2
    assert "unknown claim" in err


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    ids = out.split()
    assert "H:1" in ids and "S:1,1,1,1,1" in ids


def test_verify_identities(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "identities", "--nmax", "10", "--format", "json"
    )
    assert code == 0
    checks = json.loads(out)
    assert len(checks) == 6
    assert all(c["pass"] for c in checks)


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "--pmin", "3", "--pmax", "11")
    assert code == 2
    assert "pmin" in err


def test_verify_theorem_small(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "theorem", "--pmin", "7", "--pmax", "7",
        "--amin", "-2", "--amax", "2", "--format", "json",
    )
    assert code == 0
    checks = json.loads(out)
    assert all(c["pass"] for c in checks)
    ids = {c["claim-id"] for c in checks}
    assert "binomial-power-sum:a=2" in ids
    assert "binomial-power-sum-expansion:a=-2" in ids
    assert "binomial-vs-single-binomial:a=3" in ids


def test_verify_parallel_jobs(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "corollary", "--pmin", "7", "--pmax", "13",
        "--jobs", "2", "--format", "json",
    )
    assert code == 0
    checks = json.loads(out)
    assert len(checks) == 6
    assert all(c["pass"] for c in checks)
    # every suite under a real pool, each worker building its own prime contexts
    argv = ["verify", "--suite", "all", "--pmin", "7", "--pmax", "31"]
    serial = run(capsys, *argv)
    assert serial[0] == 0
    assert run(capsys, *argv, "--jobs", "2") == serial


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "staver", "--nmax", "-3"],
        ["--suite", "identities", "--nmax", "0"],
        ["--suite", "congruences", "--pmin", "24", "--pmax", "28"],
        ["--suite", "corollary", "--pmin", "24", "--pmax", "28"],
        ["--suite", "all", "--pmin", "24", "--pmax", "28"],
        ["--suite", "theorem", "--pmin", "7", "--pmax", "7", "--amin", "3", "--amax", "1"],
    ],
)
def test_verify_refuses_vacuous_runs(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "identities", "--nmax", "0"], "--nmax must be >= 1"),
        (["--suite", "congruences", "--pmin", "24", "--pmax", "28"], "no primes in [24, 28]"),
        (["--suite", "theorem", "--amin", "3", "--amax", "1"], "--amin must not exceed --amax"),
        (["--suite", "corollary", "--pmin", "3", "--pmax", "11"], "pmin must be > 5"),
        (["--suite", "congruences", "--pmin", "13", "--pmax", "11"], "pmin must not exceed pmax"),
    ],
)
def test_verify_list_is_refused_with_the_run(capsys, argv, message):
    for listing in ([], ["--list"]):
        code, out, err = run(capsys, "verify", *listing, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("window", [["--pmin", "3"], ["--pmin", "13", "--pmax", "11"]])
def test_verify_a_suite_without_primes_ignores_the_prime_window(capsys, window):
    code, out, err = run(capsys, "verify", "--suite", "staver", "--nmax", "5", *window)
    assert (code, err) == (0, "")
    assert out.endswith("5/5 checks passed\n")


@pytest.mark.parametrize(
    "content",
    [
        None,
        "dir",
        '[{"x": 1}]',
        '{"a": 1}',
        "{}",
        "5",
        # only lists of strings, as to_json writes them, are read
        '[[{"coeff": ["1/0"], "factors": ["1"]}]]',
        '[[{"coeff": "12", "factors": ["1"]}]]',
        '[[{"coeff": ["1"], "factors": "12"}]]',
        '[[{"coeff": [0.1], "factors": ["1"]}]]',
    ],
)
def test_derive_bad_basis_file(capsys, tmp_path, content):
    basis_file = tmp_path / "basis.json"
    if content == "dir":
        basis_file.mkdir()
    elif content is not None:
        basis_file.write_text(content)
    code, out, err = run(capsys, "derive", "1", "--basis", str(basis_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--pmin", "3", "--pmax", "11"], "pmin must be > 5"),
        (["--pmin", "13", "--pmax", "11"], "pmin must not exceed pmax"),
    ],
)
def test_verify_range_errors_are_prefixed(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    seen: list = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_jobs_capped_at_cpus_and_items(monkeypatch, capsys):
    from mhs import cli

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "seen", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli._fan_out(lambda x: [x], [1, 2], 3) == [1, 2]
    assert cli._fan_out(lambda x: [x], list(range(8)), 10**6) == list(range(8))
    assert _RecordingPool.seen == [2, 4]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._fan_out(lambda x: [x], [1, 2], 10**6) == [1, 2]  # serial
    assert _RecordingPool.seen == [2, 4]

    # 7..199 is several chunks of primes, and the pool maps over chunks
    argv = ["verify", "--suite", "corollary", "--pmin", "7", "--pmax", "199", "--format", "json"]
    serial = run(capsys, *argv)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    fanned = run(capsys, *argv, "--jobs", str(10**6))
    assert _RecordingPool.seen == [2, 4, 4]
    assert fanned == serial
    assert serial[0] == 0


def test_verify_claim_filters_every_suite(capsys):
    wanted = ["binomial-power-sum:a=2", "wolstenholme", "staver:n=3", "identity:S:1"]
    argv = ["verify", "--suite", "all", "--pmin", "7", "--pmax", "13", "--format", "json"]
    for claim_id in wanted:
        argv += ["--claim", claim_id]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    checks = json.loads(out)
    assert [(c["claim-id"], c["p"]) for c in checks] == (
        [("identity:S:1", None)]
        + [("binomial-power-sum:a=2", p) for p in (7, 11, 13)]
        + [("wolstenholme", p) for p in (7, 11, 13)]
        + [("staver:n=3", None)]
    )


def test_verify_claim_outside_selected_suite_is_unknown(capsys):
    code, out, err = run(capsys, "verify", "--suite", "theorem", "--claim", "S:1")
    assert code == 2
    assert out == ""
    assert err == "error: unknown claim ids: ['S:1']\n"


CONGRUENCE_IDS = (
    "H:1 H:2 H:3 H:1,2 H:4 H:1,1,2 H:1,3 H:1,1 H:1,1,1 H:1,1,1,1 "
    "S:1 S:2 S:1,1 S:3 S:2,1 S:1,1,1 S:4 S:2,2 S:3,1 S:2,1,1 S:1,1,1,1 "
    "S:5 S:4,1 S:3,2 S:3,1,1 S:2,2,1 S:2,1,1,1 S:1,1,1,1,1"
).split()


def test_verify_list_follows_suite(capsys):
    code, out, _ = run(capsys, "verify", "--list", "--suite", "congruences")
    assert code == 0
    assert out.splitlines() == CONGRUENCE_IDS
    code, out, _ = run(capsys, "verify", "--list", "--nmax", "4", "--amin", "0", "--amax", "0")
    assert code == 0
    ids = out.splitlines()
    assert ids[6:34] == CONGRUENCE_IDS
    assert ids[:6] == ["identity:S:1", "identity:S:2", "identity:S:1,1",
                       "identity:S:3", "identity:S:2,1", "identity:S:1,1,1"]
    assert ids[34:] == [
        "binomial-power-sum:a=0", "binomial-power-sum-expansion:a=0",
        "binomial-power-sum-anchor:a=0",
        "binomial-vs-single-binomial:a=1", "binomial-vs-single-binomial:a=2",
        "binomial-vs-single-binomial:a=3",
        "central-binomial-sum", "wolstenholme",
        "staver:n=1", "staver:n=2", "staver:n=3", "staver:n=4",
    ]


def test_verify_runs_prime_major(monkeypatch, capsys):
    from mhs import congruences

    seen = []

    def recording(claim_id, p, *rest, real=congruences.CheckResult):
        seen.append(p)
        return real(claim_id, p, *rest)

    # congruence claims and then binomial claims at each prime, as the runner
    # records each check: a run suite by suite would come back to p = 7 after p = 31
    monkeypatch.setattr(congruences, "CheckResult", recording)
    code, out, _ = run(capsys, "verify", "--suite", "all", "--pmin", "7", "--pmax", "31")
    assert code == 0
    assert set(seen) == {7, 11, 13, 17, 19, 23, 29, 31}
    assert seen == sorted(seen)


ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "op, argv",
    [
        (
            {"kind": "verify", "pmin": 7, "pmax": 13},
            ["verify", "--suite", "all", "--pmin", "7", "--pmax", "13"],
        ),
        (
            {"kind": "derive", "factors": [[1], [1, 1]], "check": 30},
            ["derive", "1;1,1", "--check", "30"],
        ),
    ],
    ids=["verify", "derive"],
)
def test_the_benchmark_tracer_returns_what_the_cli_prints(capsys, tmp_path, op, argv):
    """perfbench/trace_op.py, which calls the public functions, agrees with the CLI's JSON.

    The tracer reads what the claims expose (``kind``, ``target``,
    ``exponent``, ``rhs_value(p)``), so a claim change that breaks it shows here.
    """
    op_path, out_path = tmp_path / "op.json", tmp_path / "out.json"
    op_path.write_text(json.dumps({"id": 0, **op}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_op.py"), str(op_path), str(out_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    expected = json.loads(out)
    assert json.loads(out_path.read_text())["result"] == expected
    if op["kind"] == "verify":
        assert len(expected) == 219


def test_verify_runs_the_same_power_pass_for_any_range_of_a(monkeypatch, capsys):
    """One power pass per chunk serves every a: a wide range runs the pass of -6..6.

    The pass forms the moments of the units, so its row products (one zip
    each) are as many for -500 <= a <= 500 as for the default range.  Each
    claim is built with its a's row C(a, 0..5), so a run forms each row
    once, however many primes it checks: -2100 <= a <= 2100 forms as many
    C(a, r) at p = 7 alone as on 7..31.
    """
    from mhs import binomial_sums, congruences
    from mhs.residues import primes_in_range

    passes = []

    def counting(self, real=congruences.PrimeContext._sum_powers):
        products = []

        def counting_zip(*rows):
            products.append(len(rows))
            return zip(*rows)

        with monkeypatch.context() as patched:
            patched.setattr(congruences, "zip", counting_zip, raising=False)
            real(self)
        passes.append((self.primes, len(products)))

    monkeypatch.setattr(congruences.PrimeContext, "_sum_powers", counting)
    runs = {}
    # 15 primes, 2 * (amax - amin + 1) + 2 + 3 claims
    for amin, amax, checks in ((-6, 6, 465), (-40, 40, 2505), (-500, 500, 30105)):
        passes.clear()
        code, out, _ = run(
            capsys, "verify", "--suite", "theorem", "--amin", str(amin), "--amax", str(amax),
            "--pmin", "7", "--pmax", "61",
        )
        assert code == 0
        assert out.endswith(f"{checks}/{checks} checks passed\n")
        runs[amin] = list(passes)
    assert [chunk for chunk, _ in runs[-6]] == congruences.prime_chunks(primes_in_range(7, 61))
    assert all(products > 0 for _, products in runs[-6])
    assert runs[-500] == runs[-40] == runs[-6]

    binomials = []

    def counting_binomial(a, r, real=binomial_sums.generalized_binomial):
        binomials.append((a, r))
        return real(a, r)

    monkeypatch.setattr(binomial_sums, "generalized_binomial", counting_binomial)
    formed = {}
    for pmax, primes in ((7, 1), (31, 8)):
        passes.clear()
        binomials.clear()
        checks = primes * (2 * 4201 + 2 + 3)
        code, out, _ = run(
            capsys, "verify", "--suite", "theorem", "--amin", "-2100", "--amax", "2100",
            "--pmin", "7", "--pmax", str(pmax),
        )
        assert code == 0
        assert out.endswith(f"{checks}/{checks} checks passed\n")
        assert [chunk for chunk, _ in passes] == congruences.prime_chunks(primes_in_range(7, pmax))
        formed[pmax] = len(binomials)
    assert formed[7] == formed[31] == 6 * 4201  # C(a, 0..5) for each a, once


@pytest.mark.parametrize("listing", [[], ["--list"]])
def test_verify_builds_the_primes_once(monkeypatch, capsys, listing):
    from mhs import registry

    calls = []

    def counting(lo, hi, real=registry.primes_in_range):
        calls.append((lo, hi))
        return real(lo, hi)

    monkeypatch.setattr(registry, "primes_in_range", counting)
    code, _, _ = run(capsys, "verify", "--suite", "all", "--pmin", "7", "--pmax", "31", *listing)
    assert code == 0
    assert calls == [(7, 31)]


def test_verify_all_fans_out_once(monkeypatch, capsys):
    from mhs import cli

    argv = ["verify", "--suite", "all", "--pmin", "7", "--pmax", "199"]  # several chunks
    serial = run(capsys, *argv)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "seen", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    fanned = run(capsys, *argv, "--jobs", "4")
    assert _RecordingPool.seen == [4]
    assert fanned == serial
    assert serial[0] == 0


@pytest.mark.parametrize("n", ["0", "-3"])
def test_derive_refuses_check_below_one(capsys, n):
    code, out, err = run(capsys, "derive", "1", "--check", n)
    assert code == 2
    assert out == ""
    assert err == "error: --check must be >= 1\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_refuses_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "verify", "--suite", "corollary", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err == "error: --jobs must be >= 1\n"


def test_derive_long_trailing_ones_needs_no_deep_recursion():
    # sum_single once recursed per trailing 1; under a recursion limit far
    # below the composition's depth, it must still answer.
    import os
    import subprocess
    import sys

    script = (
        "import sys\n"
        "sys.setrecursionlimit(100)\n"
        "from mhs.cli import main\n"
        "sys.exit(main(['derive', '1^300']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.startswith("(n + 1)*H(1,1,1,")


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "1^99999999999999999999"],
        ["stuffle", "1^99999999999999999999", "1"],
        ["derive", "1^1000000000000"],
    ],
)
def test_a_repeat_count_that_cannot_be_built_is_one_error_line(argv):
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "mhs", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    count = argv[1].split("^")[1]
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: cannot repeat a part {count} times: {argv[1]!r}\n"
    assert "Traceback" not in done.stdout + done.stderr


@pytest.mark.parametrize("d", ["200", "1000000000000"])
def test_a_reduction_past_the_term_budget_is_one_error_line(d):
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "mhs", "reduce", d], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        f"error: reducing d={d} needs p({d}) >= 1,121,505 terms, one per partition of d, "
        "over the budget of 1,000,000\n"
    )
