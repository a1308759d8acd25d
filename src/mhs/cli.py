"""Command-line interface: stuffle, derive, tables, reduce, verify."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import registry
from .algebra import MhsExpression, N, stuffle
from .core import Composition, CompositionError
from .hoffman import hoffman_reduce
from .summation import RebaseError, partial_sum_oracle, rebase, sum_product
from .tables import derive_table, row_basis


def _render_multiset(counter) -> str:
    parts = []
    for comp in sorted(counter, key=Composition.sort_key, reverse=True):
        mult = counter[comp]
        body = f"({comp})"
        parts.append(body if mult == 1 else f"{mult}·{body}")
    return " + ".join(parts) if parts else "0"


def _cmd_stuffle(args) -> int:
    s = Composition.parse(args.s)
    t = Composition.parse(args.t)
    expansion = stuffle(s, t)
    if args.format == "json":
        ordered = sorted(expansion, key=Composition.sort_key, reverse=True)
        print(json.dumps({str(c): expansion[c] for c in ordered}))
    elif args.format == "latex":
        pieces = []
        for comp in sorted(expansion, key=Composition.sort_key, reverse=True):
            mult = expansion[comp]
            head = "" if mult == 1 else str(mult)
            pieces.append(f"{head}H_n({comp})")
        print("+".join(pieces))
    else:
        print(_render_multiset(expansion))
    return 0


def _parse_product(text: str) -> tuple[Composition, ...]:
    factors = tuple(
        Composition.parse(chunk) for chunk in text.split(";") if chunk.strip()
    )
    if not factors:
        raise CompositionError("empty product")
    return factors


def _load_basis(source: str) -> list[MhsExpression]:
    if source in ("w4", "weight4"):
        return [row.basis for row in row_basis(4)]
    if source in ("w5", "weight5"):
        return [row.basis for row in row_basis(5)]
    with open(source, encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, list):
        try:
            return [MhsExpression.from_json(entry) for entry in data]
        except (AttributeError, KeyError, TypeError):
            pass
    raise ValueError(f"basis file {source!r} is not a JSON list of expressions")


def _cmd_derive(args) -> int:
    if args.check is not None and args.check < 1:
        raise ValueError("--check must be >= 1")
    factors = _parse_product(args.product)
    closed = sum_product(factors)
    payload: dict = {"product": [str(c) for c in factors], "closed_form": closed.to_json()}

    if args.basis is not None:
        basis = _load_basis(args.basis)
        target = closed
        if args.basis in ("w4", "weight4", "w5", "weight5"):
            # The table bases span sum f_k - (n+1) f_n, so rebase that form.
            target = closed - (N + 1) * MhsExpression.monomial(1, factors)
        try:
            coeffs = rebase(target, basis)
        except RebaseError as exc:
            print(f"rebase failed: residual {exc.residual}", file=sys.stderr)
            return 1
        payload["basis_coefficients"] = [poly.to_json() for poly in coeffs]

    verified = None
    if args.check is not None:
        verified = partial_sum_oracle(factors, closed, args.check)
        payload["verified"] = verified

    if args.format == "json":
        print(json.dumps(payload))
    elif args.format == "latex":
        print(closed.latex())
    else:
        print(closed)
        if args.basis is not None:
            for poly, expr in zip(coeffs, basis):
                print(f"  [{poly}] * ({expr})")
        if verified is not None:
            print(f"verified n=1..{args.check}" if verified else "VERIFICATION FAILED")
    return 0 if verified in (None, True) else 1


def _cmd_tables(args) -> int:
    try:
        table = derive_table(args.weight)
    except RebaseError as exc:
        print(f"table derivation failed: {exc}", file=sys.stderr)
        return 1
    if any(cell.degree > 1 for rowcells in table.cells for cell in rowcells):
        print("table cell exceeds degree 1", file=sys.stderr)
        return 1
    if args.format == "json":
        print(table.dumps())
    elif args.format == "latex":
        print(table.render_latex())
    else:
        print(table.render_text())
    return 0


def _cmd_reduce(args) -> int:
    expr = hoffman_reduce(args.d)
    lhs = MhsExpression.monomial(1, (Composition((1,) * args.d),))
    from math import factorial

    if args.format == "json":
        print(
            json.dumps(
                {"d": args.d, "lhs": (factorial(args.d) * lhs).to_json(), "rhs": expr.to_json()}
            )
        )
    elif args.format == "latex":
        print(f"{factorial(args.d)}{lhs.latex()}={expr.latex()}")
    else:
        print(f"{factorial(args.d)}*{lhs} = {expr}")
    return 0


def _fan_out(worker, items, jobs: int) -> list:
    workers = min(jobs, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [result for item in items for result in worker(item)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [result for chunk in pool.map(worker, items) for result in chunk]


def _cmd_verify(args) -> int:
    if args.pmin <= 5:
        raise ValueError("pmin must be > 5")
    if args.pmin > args.pmax:
        raise ValueError("pmin must not exceed pmax")
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")

    selection = registry.select(args.suite, args.claim, args)
    if args.list:
        for _, claims in selection:
            for claim in claims:
                print(claim.claim_id)
        return 0

    checks = registry.run(selection, args, functools.partial(_fan_out, jobs=args.jobs))
    all_passed = all(c.passed for c in checks)
    if args.format == "json":
        print(json.dumps([c.to_json() for c in checks]))
    else:
        for c in checks:
            status = "pass" if c.passed else "FAIL"
            location = f" p={c.p}" if c.p is not None else ""
            print(f"{status} {c.claim_id}{location}")
        print(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return 0 if all_passed else 1


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=["text", "latex", "json"],
        default="text",
        help="output format (default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhs",
        description="Exact identities and congruences for multiple harmonic sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stuffle = sub.add_parser("stuffle", help="quasi-shuffle expansion of two compositions")
    p_stuffle.add_argument("s", help='composition, e.g. "1,2" or "" for the unit')
    p_stuffle.add_argument("t")
    _add_format(p_stuffle)
    p_stuffle.set_defaults(func=_cmd_stuffle)

    p_derive = sub.add_parser(
        "derive", help="closed form of sum over k of a product of harmonic sums"
    )
    p_derive.add_argument("product", help='factors separated by ";", e.g. "1;1,1"')
    p_derive.add_argument("--check", type=int, metavar="N", help="verify against partial sums for n=1..N")
    p_derive.add_argument(
        "--basis",
        metavar="FILE",
        help=(
            "rebase onto a JSON basis file; the built-ins w4 / w5 rebase the "
            "subtracted form sum f_k - (n+1) f_n onto the table row basis"
        ),
    )
    _add_format(p_derive)
    p_derive.set_defaults(func=_cmd_derive)

    p_tables = sub.add_parser("tables", help="regenerate a coefficient table")
    p_tables.add_argument("--weight", type=int, choices=[4, 5], required=True)
    _add_format(p_tables)
    p_tables.set_defaults(func=_cmd_tables)

    p_reduce = sub.add_parser(
        "reduce", help="express d! * H({1}^d) in depth-1 harmonic sums"
    )
    p_reduce.add_argument("d", type=int)
    _add_format(p_reduce)
    p_reduce.set_defaults(func=_cmd_reduce)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suite",
        choices=[suite.name for suite in registry.SUITES] + ["all"],
        default="all",
    )
    p_verify.add_argument("--pmin", type=int, default=7)
    p_verify.add_argument("--pmax", type=int, default=31)
    p_verify.add_argument("--amin", type=int, default=-6)
    p_verify.add_argument("--amax", type=int, default=6)
    p_verify.add_argument("--nmax", type=int, default=30)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--list", action="store_true", help="list the selected claim ids")
    p_verify.add_argument(
        "--claim", action="append", metavar="ID", help="run only this claim id (repeatable)"
    )
    _add_format(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ValueError covers CompositionError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
