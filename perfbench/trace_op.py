"""Tracer: reproduce one benchmark op through the public functions.

Usage: python perfbench/trace_op.py OP_JSON OUT_JSON  (with src on PYTHONPATH)

The tracer calls the functions the CLI calls, in the CLI's order, and wraps
each call in a span named ``<module>.<function>``.  Spans are recorded only
around calls made from this file, never inside the program.  To charge each
layer its own cold cost, lower layers are called first: the Bernoulli
invariant before a prime's checks, ``linearize`` and ``sum_single`` before
``sum_product``, and ``eval_mhs`` in ascending n before ``eval_expr``.
Spans stay in memory; the result and the spans are written to OUT_JSON at exit.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from fractions import Fraction
from math import comb

_clock = time.perf_counter
_spans: list[list] = []  # [name, start, end, parent index]
_stack: list[int] = [-1]


def call(name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs) inside a span called ``name``."""
    index = len(_spans)
    span = [name, _clock(), None, _stack[-1]]
    _spans.append(span)
    _stack.append(index)
    try:
        return fn(*args, **kwargs)
    finally:
        _stack.pop()
        span[2] = _clock()


def _load():
    start = _clock()
    importlib.import_module("mhs")
    import_s = _clock() - start
    # Submodules by import_module: ``mhs.bernoulli`` as an attribute is the
    # re-exported function, not the module.
    names = ["algebra", "bernoulli", "binomial_sums", "congruences", "core",
             "residues", "summation", "tables"]
    return import_s, {n: importlib.import_module(f"mhs.{n}") for n in names}


def _closed_form(m, factors) -> tuple:
    """sum_product(factors), after its lower layers, plus the linear term count."""
    A, S, C = m["algebra"], m["summation"], m["core"]
    comps = sorted((c for c in factors if c), key=C.Composition.sort_key)
    linear = call("algebra.linearize", A.linearize, A.MhsExpression.monomial(1, comps))
    for mono in linear.terms():
        comp = mono.factors[0] if mono.factors else C.Composition()
        call("summation.sum_single", S.sum_single, comp)
    closed = call("summation.sum_product", S.sum_product, factors)
    return closed, len(linear.terms())


def _partial_sums_match(m, closed, factors, nmax: int) -> bool:
    """The CLI's brute-force comparison for n = 1..nmax, stopping at a miss."""
    A, C = m["algebra"], m["core"]
    rows = [call("core.mhs_prefix_values", C.mhs_prefix_values, nmax, f) for f in factors]
    symbols = sorted({s for t in closed.terms() for s in t.factors}, key=C.Composition.sort_key)
    partial = Fraction(0)
    for n in range(1, nmax + 1):
        for s in symbols:
            call("core.eval_mhs", C.eval_mhs, n, s)
        term = Fraction(1)
        for row in rows:
            term *= row[n]
        partial += term
        if call("algebra.eval_expr", A.eval_expr, closed, n) != partial:
            return False
    return True


def _record(claim_id, p, modulus, lhs, rhs, passed) -> dict:
    return {"claim-id": claim_id, "p": p, "modulus": modulus,
            "lhs-residue": lhs, "rhs-residue": rhs, "pass": passed}


def trace_verify(m, op: dict, nmax: int = 30, amin: int = -6, amax: int = 6):
    A, Bn, Bs = m["algebra"], m["bernoulli"], m["binomial_sums"]
    Cg, R, S = m["congruences"], m["residues"], m["summation"]
    records = []
    primes = call("residues.primes_in_range", R.primes_in_range, op["pmin"], op["pmax"])
    for ident in S.known_identities():
        derived, _ = _closed_form(m, ident.factors)
        symbolic = call("algebra.expr_equal", A.expr_equal, derived, ident.rhs)
        numeric = _partial_sums_match(m, derived, ident.factors, nmax)
        records.append(_record(f"identity:{ident.name}", None, None, str(derived),
                               str(ident.rhs), symbolic and numeric))
    for p in primes:
        call("bernoulli.bernoulli_invariant", Bn.bernoulli_invariant, p)
        for claim in Cg.BASE_CLAIMS + Cg.SUM_CLAIMS:
            e = claim.exponent
            if claim.kind == "mhs":
                lhs = call("congruences.mhs_mod", Cg.mhs_mod, claim.target, p, e).value
            else:
                lhs = call("congruences.homogeneous_product_sum_mod",
                           Cg.homogeneous_product_sum_mod, claim.target, p, e)
            value = call("congruences.rhs_value", claim.rhs_value, p)
            rhs = call("residues.reduce_mod", R.reduce_mod, value, p, e).value
            records.append(_record(claim.claim_id, p, p**e, lhs, rhs, lhs == rhs))
    for p in primes:

        def power_sum(a: int, e: int = 6) -> int:
            return call("binomial_sums.binomial_power_sum", Bs.binomial_power_sum, a, p, e).value

        for a in range(amin, amax + 1):
            lhs = power_sum(a)
            rhs = call("binomial_sums.binomial_power_sum_closed_form",
                       Bs.binomial_power_sum_closed_form, a, p).value
            records.append(_record(f"binomial-power-sum:a={a}", p, p**6, lhs, rhs, lhs == rhs))
            via = call("binomial_sums.binomial_power_sum_via_mhs",
                       Bs.binomial_power_sum_via_mhs, a, p).value
            records.append(_record(f"binomial-power-sum-expansion:a={a}", p, p**6,
                                   via, lhs, via == lhs))
        for a, expected in ((0, p % p**6), (1, 0)):
            if amin <= a <= amax:
                value = power_sum(a)
                records.append(_record(f"binomial-power-sum-anchor:a={a}", p, p**6,
                                       value, expected, value == expected))
        for a in (1, 2, 3):
            lhs = power_sum(a, 4)
            rhs = comb(a * p - 2, p - 1) % p**4
            records.append(_record(f"binomial-vs-single-binomial:a={a}", p, p**4,
                                   lhs, rhs, lhs == rhs))
    for p in primes:
        lhs, rhs = call("binomial_sums.central_binomial_sum_exact",
                        Bs.central_binomial_sum_exact, p)
        lhs = call("residues.reduce_mod", R.reduce_mod, lhs, p, 4).value
        rhs = call("residues.reduce_mod", R.reduce_mod, rhs, p, 4).value
        records.append(_record("central-binomial-sum", p, p**4, lhs, rhs, lhs == rhs))
        holds = call("binomial_sums.wolstenholme_holds", Bs.wolstenholme_holds, p)
        records.append(_record("wolstenholme", p, p**3, comb(2 * p - 1, p - 1) % p**3, 1, holds))
    for n in range(1, nmax + 1):
        holds = call("binomial_sums.staver_identity_holds", Bs.staver_identity_holds, n)
        records.append(_record(f"staver:n={n}", None, None, None, None, holds))
    return records, {"primes": len(primes), "checks": len(records)}


def trace_derive(m, op: dict):
    C = m["core"]
    factors = tuple(C.Composition(f) for f in op["factors"])
    closed, linear = _closed_form(m, factors)
    payload = {"product": [str(c) for c in factors], "closed_form": closed.to_json()}
    work = {"linearized_terms": linear, "closed_form_terms": len(closed.terms())}
    if op["check"] is not None:
        payload["verified"] = _partial_sums_match(m, closed, factors, op["check"])
        work["verified_points"] = op["check"]
    return payload, work


def trace_tables(m, op: dict):
    A, S, T = m["algebra"], m["summation"], m["tables"]
    weight = op["weight"]
    basis = [row.basis for row in T.row_basis(weight)]
    columns = T.column_products(weight)
    closed = [_closed_form(m, factors)[0] for factors in columns]
    for factors, form in zip(columns, closed):
        target = form - (A.N + 1) * A.MhsExpression.monomial(1, factors)
        coeffs = call("summation.rebase", S.rebase, target, basis,
                      max_degree=1, require_unique=True)
        combination = A.MhsExpression.zero()
        for poly, b in zip(coeffs, basis):
            combination = combination + poly * b
        call("algebra.expr_equal", A.expr_equal, target, combination)
    table = call("tables.derive_table", T.derive_table, weight).to_json()
    return table, {"cells": sum(len(row["cells"]) for row in table["rows"])}


TRACERS = {"verify": trace_verify, "derive": trace_derive, "tables": trace_tables}


def main(op_path: str, out_path: str) -> int:
    with open(op_path, encoding="utf-8") as handle:
        op = json.load(handle)
    import_s, modules = _load()
    result, work = call("op", TRACERS[op["kind"]], modules, op)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"op_id": op["id"], "import_s": import_s, "result": result, "work": work,
                   "spans": _spans}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
