"""Cold-process benchmark of the ``mhs`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single closed-loop client runs the workload's seeded op deck, one op at a
time, each as a fresh ``python -m mhs ... --format json`` process, for S
seconds.  Every output is checked (see checks.py).  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Per-op records, the run environment and the absolute
per-layer times go to ``.bench_out/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import inputs

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
OP_TIMEOUT_S = 40  # keeps a run with a hung op under 180 s
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # op_s_tail is the highest percentile with this many ops above it
# probe_s() on the 2-vCPU 2.1 GHz Xeon VM the bounds were set on; times are
# reported at this host speed.
PROBE_NOMINAL_S = 0.0180

# Layers the tracer spans, as <module>.<function>.
LAYERS = [
    "bernoulli.bernoulli_invariant",
    "binomial_sums.binomial_power_sum_via_mhs",
    "binomial_sums.binomial_power_sum",
    "binomial_sums.binomial_power_sum_closed_form",
    "binomial_sums.central_binomial_sum_exact",
    "congruences.homogeneous_product_sum_mod",
    "congruences.mhs_mod",
    "congruences.rhs_value",
    "residues.reduce_mod",
    "residues.primes_in_range",
    "summation.sum_product",
    "summation.sum_single",
    "algebra.linearize",
    "summation.rebase",
    "algebra.expr_equal",
    "tables.derive_table",
    "core.eval_mhs",
    "core.mhs_prefix_values",
    "algebra.eval_expr",
]


def child_env() -> dict:
    env = dict(os.environ)
    # Byte-compiled files go under the checkout, whatever the caller's
    # environment says; the warm-up writes them.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Launcher:
    """The small process that spawns every op (see spawner.py)."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py"), str(OP_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
            text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, argv: list[str], tag: str) -> dict:
        """Run argv; wall time from spawn to exit, and rusage from os.wait4."""
        out, err = OUT / f"{tag}.out", OUT / f"{tag}.err"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the op launcher exited")
        result = json.loads(line)
        result["stdout"] = out.read_text(encoding="utf-8", errors="replace")
        return result


def run_op(launcher: Launcher, op: dict, tag: str) -> dict:
    """One untraced op: spawn the CLI and check its output."""
    res = launcher.run([sys.executable, "-m", "mhs", *op["argv"], "--format", "json"], tag)
    reason, work = checks.check(op, res["rc"], res["stdout"])
    if res["timed_out"]:
        reason = f"timed out after {OP_TIMEOUT_S} s"
    res.update(id=op["id"], argv=op["argv"], reason=reason, work=work)
    return res


def run_traced(launcher: Launcher, op: dict, tag: str) -> dict:
    op_path, out_path = OUT / f"{tag}.op.json", OUT / f"{tag}.trace.json"
    op_path.write_text(json.dumps(op), encoding="utf-8")
    out_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "trace_op.py"), str(op_path), str(out_path)]
    res = launcher.run(argv, tag)
    res["trace"] = json.loads(out_path.read_text(encoding="utf-8")) if res["rc"] == 0 else None
    return res


def traced_mismatch(plain: dict, traced: dict) -> str | None:
    """Why the tracer did not reproduce the untraced op, or None."""
    if traced["rc"] != 0:
        return f"tracer exit code {traced['rc']}"
    got = traced["trace"]
    if json.loads(plain["stdout"]) != got["result"]:
        return "traced results differ from the untraced output"
    if got["work"] != plain["work"]:
        return f"traced work {got['work']} differs from {plain['work']}"
    return None


def setup(launcher: Launcher, workload: str, seed: int) -> tuple[list[dict], list[str]]:
    """Generate the deck, warm up each subcommand, and self-test the checkers."""
    deck = inputs.make_deck(workload, seed)
    problems = []
    for i, op in enumerate(inputs.WARMUPS[workload]):
        res = run_op(launcher, {**op, "id": f"warmup{i}"}, f"warmup{i}")
        if res["reason"] is not None:
            problems.append(f"warm-up {' '.join(op['argv'])}: {res['reason']}")
            continue
        accepted = checks.self_test(op, res["stdout"])
        problems += [f"checker accepted a doctored output ({name})" for name in accepted]
    return deck, problems


def probe_s() -> float:
    """Wall time of a fixed pure-Python job in this process: a host-speed probe.

    Fraction sums, modular inverses, and merges of tuple-keyed dicts, like the
    program's residue, exact and symbolic kernels.  It uses nothing from
    ``mhs``, so a change to the program cannot move it.
    """
    start = time.perf_counter()
    acc, x, mod = Fraction(0), 0, 1000003**3
    for k in range(1, 500):
        acc += Fraction(1, k * k)
    for k in range(1, 10000):
        x = (x + pow(k, -1, mod)) % mod
    total: dict = {}
    for k in range(1, 300):
        term = {(k % 7, j % 5, j): Fraction(j, k) for j in range(8)}
        merged = dict(total)
        for key, value in term.items():
            merged[key] = merged.get(key, 0) + value
        total = merged
    return time.perf_counter() - start


def timed(record: dict, wall: float, before: float, after: float) -> None:
    """Store a raw wall time and the same time at the nominal host speed.

    Neighbours on a shared host slow every process by up to a half for
    seconds at a time; the probes taken just before and after an interval
    measure that slowdown, and the scaled time divides it out.
    """
    record["wall_s"] = wall
    record["probe_s"] = [before, after]
    record["scaled_s"] = wall * PROBE_NOMINAL_S / ((before + after) / 2)


def measure(launcher: Launcher, args, deck) -> tuple[list[dict], list[tuple[dict, dict]]]:
    """Closed loop over the deck until the run's time is up."""
    records, pairs = [], []
    deadline = time.perf_counter() + args.seconds
    probe = probe_s()
    while not records or time.perf_counter() < deadline:
        op = deck[len(records) % len(deck)]
        plain = run_op(launcher, op, "op")
        if args.trace:
            traced = run_traced(launcher, op, "trace")
            if plain["reason"] is None:
                plain["reason"] = traced_mismatch(plain, traced)
            pairs.append((plain, traced))
        after = probe_s()
        timed(plain, plain["wall_s"], probe, after)
        records.append(plain)
        probe = after
    return records, pairs


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile level, entries above it) of the highest percentile
    with TAIL_BEYOND entries above it.

    With TAIL_BEYOND entries or fewer no percentile has that many above it,
    and the median stands in.
    """
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return statistics.median(ordered), 50.0, len(ordered) // 2
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), TAIL_BEYOND


def checks_done(op: dict, work: dict) -> int:
    """Results of one op that the program produced and the benchmark confirmed."""
    if op["kind"] == "verify":
        return work["checks"]
    if op["kind"] == "tables":
        return work["cells"]
    return work.get("verified_points", work["closed_form_terms"])


def end_to_end(deck: list[dict], records: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics over deck entries, each at the median of its runs.

    A run ends part-way through a deck cycle, and how far it gets depends on
    the host; taking each entry once keeps the cost mix of every run the same.
    """
    runs: dict[int, list[dict]] = {}
    for r in records:
        runs.setdefault(r["id"], []).append(r)
    times = {i: statistics.median(r["scaled_s"] for r in rs) for i, rs in runs.items()}
    confirmed = {
        i: sum(checks_done(deck[i], r["work"]) for r in rs if r["reason"] is None) / len(rs)
        for i, rs in runs.items()
    }
    tail_value, level, beyond = tail(list(times.values()))
    ok = sum(r["reason"] is None for r in records)
    metrics = {
        "setup_s": (statistics.median(s["scaled_s"] for s in setups), "s"),
        "op_s_p50": (statistics.median(times.values()), "s"),
        "op_s_tail": (tail_value, "s"),
        "checks_per_s": (sum(confirmed.values()) / sum(times.values()), "1/s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB"),
        "ok_ratio": (ok / len(records), "ratio"),
    }
    extra = {"entries": len(times), "tail_percentile": level, "tail_entries_beyond": beyond}
    return metrics, extra


def layer_times(spans: list[list]) -> dict[str, list]:
    """name -> [calls, busy seconds, self seconds] over one traced op's spans."""
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    totals: dict[str, list] = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = totals.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - children[i]
    return totals


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    traced_wall = sum(t["wall_s"] for _, t in pairs)
    plain_wall = sum(p["wall_s"] for p, _ in pairs)
    traces = [t["trace"] for _, t in pairs if t["trace"] is not None]
    totals = {name: [0, 0.0, 0.0] for name in LAYERS}
    for trace in traces:
        for name, row in layer_times(trace["spans"]).items():
            total = totals.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                total[k] += row[k]
    metrics = {}
    for name in LAYERS:
        calls, busy, own = totals[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.busy_pct"] = (100.0 * busy / traced_wall, "%")
        metrics[f"{name}.self_pct"] = (100.0 * own / traced_wall, "%")
    imports = [trace["import_s"] for trace in traces] or [0.0]
    metrics["import.mhs_s"] = (statistics.median(imports), "s")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    absolute = {name: dict(zip(("calls", "busy_s", "self_s"), row))
                for name, row in totals.items()}
    return metrics, {"layers": absolute, "traced_wall_s": traced_wall,
                     "untraced_wall_s": plain_wall}


def read_steal_ticks() -> int | None:
    """Steal ticks of the aggregate cpu line of /proc/stat (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return int(handle.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def env_snapshot() -> dict:
    return {"loadavg": list(os.getloadavg()), "steal_ticks": read_steal_ticks()}


def env_record() -> dict:
    return {
        "python": platform.python_version(),
        "executable": sys.executable,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mhs" / "__main__.py").is_file():
        print(f"error: no mhs sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    env_before = env_snapshot()
    setups, problems = [], []
    with Launcher() as launcher:
        probe_s()  # the first call in a process runs slow; discard it
        probe = probe_s()
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            deck, problems = setup(launcher, args.workload, args.seed)
            wall = time.perf_counter() - start
            after = probe_s()
            record: dict = {}
            timed(record, wall, probe, after)
            setups.append(record)
            probe = after
            if problems:
                break
        records, pairs = measure(launcher, args, deck)
    env_after = env_snapshot()

    if args.trace:
        metrics, extra = per_layer(pairs)
    else:
        metrics, extra = end_to_end(deck, records, setups)
    failed = sum(r["reason"] is not None for r in records)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_record(), "env_before": env_before,
        "env_after": env_after, "setups": setups, "problems": problems,
        "deck": [" ".join(op["argv"]) for op in deck], **extra,
        "ops": [{k: v for k, v in r.items() if k not in ("stdout", "trace")} for r in records],
    }
    detail_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1), encoding="utf-8")
    for line in problems + [f"op {r['id']} {' '.join(r['argv'])}: {r['reason']}"
                            for r in records if r["reason"] is not None]:
        print(line, file=sys.stderr)
    print(f"{len(records)} ops, {failed} failed; details in {detail_path}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
