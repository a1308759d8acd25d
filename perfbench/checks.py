"""Output checkers for the benchmark ops, independent of ``mhs``.

:func:`check` takes an op, the child's exit code and its stdout, and returns
``(reason, work)``: ``reason`` is None when the output is accepted, else a
one-line explanation; ``work`` holds the exact work counts of the op.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# Per-prime claims of `verify --suite all` with their modulus exponent: the
# registries (10 H_{p-1} claims, 18 sum claims), the theorem suite for a in
# -6..6 with its two anchors, the Cai-Granville comparison for a = 1..3, and
# the two corollary checks.
_PER_PRIME = {
    "H:1": 4, "H:2": 3, "H:3": 2, "H:1,2": 2, "H:4": 1,
    "H:1,1,2": 1, "H:1,3": 1, "H:1,1": 3, "H:1,1,1": 2, "H:1,1,1,1": 1,
    "S:1": 5, "S:2": 4, "S:1,1": 4, "S:3": 3, "S:2,1": 3, "S:1,1,1": 3,
    "S:4": 2, "S:2,2": 2, "S:3,1": 2, "S:2,1,1": 2, "S:1,1,1,1": 2,
    "S:5": 1, "S:4,1": 1, "S:3,2": 1, "S:3,1,1": 1, "S:2,2,1": 1,
    "S:2,1,1,1": 1, "S:1,1,1,1,1": 1,
    **{f"binomial-power-sum:a={a}": 6 for a in range(-6, 7)},
    **{f"binomial-power-sum-expansion:a={a}": 6 for a in range(-6, 7)},
    "binomial-power-sum-anchor:a=0": 6,
    "binomial-power-sum-anchor:a=1": 6,
    **{f"binomial-vs-single-binomial:a={a}": 4 for a in (1, 2, 3)},
    "central-binomial-sum": 4,
    "wolstenholme": 3,
}
_IDENTITIES = ["S:1", "S:2", "S:1,1", "S:3", "S:2,1", "S:1,1,1"]
STAVER_NMAX = 30  # the CLI default --nmax


def expected_verify_ids(primes: list[int]) -> Counter:
    """The exact multiset of (claim-id, p) that `verify --suite all` must emit."""
    ids = Counter((f"identity:{name}", None) for name in _IDENTITIES)
    ids.update((claim, p) for p in primes for claim in _PER_PRIME)
    ids.update((f"staver:n={n}", None) for n in range(1, STAVER_NMAX + 1))
    return ids


def _independent_residues(p: int) -> dict[str, tuple[str, int]]:
    """A few lhs/rhs residues recomputed here from their definitions."""
    h1 = sum(pow(k, -1, p**5) for k in range(1, p)) % p**5
    h2 = sum(pow(k, -2, p**3) for k in range(1, p)) % p**3
    return {
        "H:1": ("lhs-residue", h1 % p**4),
        "H:2": ("lhs-residue", h2),
        # sum_{k<p} H_k(1) = p H_{p-1}(1) - (p - 1)
        "S:1": ("lhs-residue", (p * h1 - (p - 1)) % p**5),
        # sum_k C(p-1, k)^2 = C(2p-2, p-1)
        "binomial-power-sum:a=2": ("lhs-residue", comb(2 * p - 2, p - 1) % p**6),
        "binomial-vs-single-binomial:a=3": ("rhs-residue", comb(3 * p - 2, p - 1) % p**4),
        "wolstenholme": ("lhs-residue", comb(2 * p - 1, p - 1) % p**3),
    }


def check_verify(op: dict, stdout: str) -> tuple[str | None, dict]:
    work = {"primes": len(op["primes"]), "checks": 0}
    records = json.loads(stdout)
    work["checks"] = len(records)
    if not records:
        return "zero checks executed", work
    got = Counter((r["claim-id"], r["p"]) for r in records)
    want = expected_verify_ids(op["primes"])
    if got != want:
        missing = sorted(map(str, (want - got).elements()))[:3]
        extra = sorted(map(str, (got - want).elements()))[:3]
        return f"claim set differs: missing {missing}, unexpected {extra}", work
    spot = {p: _independent_residues(p) for p in op["primes"]}
    for r in records:
        if r["pass"] is not True:
            return f"{r['claim-id']} p={r['p']} did not pass", work
        p = r["p"]
        if p is None:
            continue
        if r["modulus"] != p ** _PER_PRIME[r["claim-id"]]:
            return f"{r['claim-id']} p={p} has modulus {r['modulus']}", work
        if r["lhs-residue"] != r["rhs-residue"]:
            return f"{r['claim-id']} p={p} passes with lhs != rhs", work
        if r["claim-id"] in spot[p]:
            key, value = spot[p][r["claim-id"]]
            if r[key] != value:
                return f"{r['claim-id']} p={p}: {key} {r[key]} != {value}", work
    return None, work


class _Evaluator:
    """Exact H_n(s) by the prefix recurrence, memoized per (n, s)."""

    def __init__(self):
        self.memo: dict[tuple[int, tuple], Fraction] = {}

    def h(self, n: int, s: tuple) -> Fraction:
        if not s:
            return Fraction(1)
        if len(s) > n:
            return Fraction(0)
        key = (n, s)
        if key not in self.memo:
            self.memo[key] = self.h(n - 1, s) + self.h(n - 1, s[:-1]) / Fraction(n) ** s[-1]
        return self.memo[key]


def _parse_comp(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",")) if text else ()


CLOSED_FORM_POINTS = 8  # n = 1..8 covers every symbol of depth <= 8


def closed_form_mismatch(factors: list[list[int]], closed: list[dict]) -> int | None:
    """First n <= CLOSED_FORM_POINTS where the closed form misses the sum, or None."""
    ev = _Evaluator()
    terms = [
        ([Fraction(c) for c in t["coeff"]], [_parse_comp(f) for f in t["factors"]])
        for t in closed
    ]
    factors = [tuple(f) for f in factors]
    partial = Fraction(0)
    for n in range(1, CLOSED_FORM_POINTS + 1):
        product = Fraction(1)
        for f in factors:
            product *= ev.h(n, f)
        partial += product
        value = Fraction(0)
        for coeffs, symbols in terms:
            term = sum(c * n**i for i, c in enumerate(coeffs))
            for s in symbols:
                term *= ev.h(n, s)
            value += term
        if value != partial:
            return n
    return None


def check_derive(op: dict, stdout: str) -> tuple[str | None, dict]:
    work = {"linearized_terms": op["linearized_terms"], "closed_form_terms": 0}
    if op["check"] is not None:
        work["verified_points"] = op["check"]
    payload = json.loads(stdout)
    work["closed_form_terms"] = len(payload["closed_form"])
    if payload["product"] != [",".join(map(str, f)) for f in op["factors"]]:
        return f"product echoed as {payload['product']}", work
    if op["check"] is not None and payload.get("verified") is not True:
        return "--check ran but verified is not true", work
    n = closed_form_mismatch(op["factors"], payload["closed_form"])
    if n is not None:
        return f"closed form disagrees with the partial sum at n={n}", work
    return None, work


def golden_table(weight: int) -> dict:
    return json.loads((GOLDEN / f"table_w{weight}.json").read_text(encoding="utf-8"))


def check_tables(op: dict, stdout: str) -> tuple[str | None, dict]:
    golden = golden_table(op["weight"])
    work = {"cells": sum(len(row["cells"]) for row in golden["rows"])}
    table = json.loads(stdout)
    if table != golden:
        return f"weight-{op['weight']} table differs from the golden copy", work
    return None, work


CHECKERS = {"verify": check_verify, "derive": check_derive, "tables": check_tables}


def check(op: dict, rc: int, stdout: str) -> tuple[str | None, dict]:
    """Accept or reject one op's output; malformed output is a rejection."""
    if rc != 0:
        return f"exit code {rc}", {}
    try:
        return CHECKERS[op["kind"]](op, stdout)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:  # JSON errors included
        return f"malformed output: {type(exc).__name__}: {exc}", {}


def _doctored(op: dict, stdout: str) -> list[tuple[str, str]]:
    """Altered copies of an accepted output, each of which must be rejected."""
    data = json.loads(stdout)
    out = []
    if op["kind"] == "verify":
        flipped = json.loads(stdout)
        flipped[-1]["pass"] = False
        out.append(("flipped pass", json.dumps(flipped)))
        out.append(("dropped claim id", json.dumps(data[:-1])))
        moved = json.loads(stdout)
        h1 = next(r for r in moved if r["claim-id"] == "H:1")
        h1["lhs-residue"] = h1["rhs-residue"] = h1["lhs-residue"] + 1
        out.append(("altered residue", json.dumps(moved)))
        out.append(("zero checks", "[]"))
    elif op["kind"] == "derive":
        altered = json.loads(stdout)
        coeff = altered["closed_form"][0]["coeff"]
        coeff[0] = str(Fraction(coeff[0]) + 1)
        out.append(("altered coefficient", json.dumps(altered)))
        if op["check"] is not None:
            out.append(("unverified", json.dumps({**data, "verified": False})))
    else:
        altered = json.loads(stdout)
        cell = altered["rows"][0]["cells"][0]
        cell[0] = str(Fraction(cell[0]) + 1)
        out.append(("altered cell", json.dumps(altered)))
    return out


def self_test(op: dict, stdout: str) -> list[str]:
    """Feed the checker doctored copies of a good output; list any it accepts."""
    return [name for name, text in _doctored(op, stdout) if check(op, 0, text)[0] is None]
