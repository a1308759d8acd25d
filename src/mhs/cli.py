"""Command-line interface: stuffle, derive, tables, reduce, verify."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import factorial

from . import SUITE_NAMES
from .algebra import MhsExpression, stuffle
from .core import Composition, CompositionError
from .summation import RebaseError, partial_sum_oracle, rebase, sum_product

# registry, tables, hoffman and the process pool are imported where they are
# used, so that a cold run loads only what its subcommand runs.

# Built-in bases for --basis: the table row basis of each weight.
_TABLE_BASES = {"w4": 4, "w5": 5}


def _cmd_stuffle(args) -> int:
    expansion = stuffle(Composition.parse(args.s), Composition.parse(args.t))
    ordered = [
        (c, expansion[c]) for c in sorted(expansion, key=Composition.sort_key, reverse=True)
    ]
    if args.format == "json":
        print(json.dumps({str(c): mult for c, mult in ordered}))
    elif args.format == "latex":
        print("+".join(f"{'' if mult == 1 else mult}H_n({c})" for c, mult in ordered))
    else:
        terms = (f"({c})" if mult == 1 else f"{mult}·({c})" for c, mult in ordered)
        print(" + ".join(terms) or "0")
    return 0


def _parse_product(text: str) -> tuple[Composition, ...]:
    factors = tuple(
        Composition.parse(chunk) for chunk in text.split(";") if chunk.strip()
    )
    if not factors:
        raise CompositionError("empty product")
    return factors


def _load_basis(source: str) -> list[MhsExpression]:
    if source in _TABLE_BASES:
        from .tables import row_basis

        return [row.basis for row in row_basis(_TABLE_BASES[source])]
    with open(source, encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, list):
        try:
            return [MhsExpression.from_json(entry) for entry in data]
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"basis file {source!r} is not a JSON list of expressions")


def _cmd_derive(args) -> int:
    if args.check is not None and args.check < 1:
        raise ValueError("--check must be >= 1")
    factors = _parse_product(args.product)
    closed = sum_product(factors)

    if args.basis is not None:
        from .tables import table_form

        basis = _load_basis(args.basis)
        # The table bases span sum f_k - (n+1) f_n, so rebase that form.
        target = table_form(factors, closed) if args.basis in _TABLE_BASES else closed
        try:
            coeffs = rebase(target, basis)
        except RebaseError as exc:
            print(f"rebase failed: residual {exc.residual}", file=sys.stderr)
            return 1

    verified = None
    if args.check is not None:
        verified = partial_sum_oracle(factors, closed, args.check)

    if args.format == "json":
        payload: dict = {"product": [str(c) for c in factors], "closed_form": closed.to_json()}
        if args.basis is not None:
            payload["basis_coefficients"] = [poly.to_json() for poly in coeffs]
        if verified is not None:
            payload["verified"] = verified
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
    from .tables import derive_table

    try:
        table = derive_table(args.weight)
    except RebaseError as exc:
        print(f"table derivation failed: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(table.dumps())
    elif args.format == "latex":
        print(table.render_latex())
    else:
        print(table.render_text())
    return 0


def _cmd_reduce(args) -> int:
    from .hoffman import hoffman_reduce

    expr = hoffman_reduce(args.d)
    lhs = MhsExpression.monomial(1, (Composition((1,) * args.d),))
    scale = factorial(args.d)
    if args.format == "json":
        print(json.dumps({"d": args.d, "lhs": (scale * lhs).to_json(), "rhs": expr.to_json()}))
    elif args.format == "latex":
        print(f"{scale}{lhs.latex()}={expr.latex()}")
    else:
        print(f"{scale}*{lhs} = {expr}")
    return 0


def _fan_out(worker, items, jobs: int) -> list:
    workers = min(jobs, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [result for item in items for result in worker(item)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [result for chunk in pool.map(worker, items) for result in chunk]


def _cmd_verify(args) -> int:
    from . import registry

    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")

    selection, primes = registry.select(args.suite, args.claim, args)
    if args.list:
        for _, claims in selection:
            for claim in claims:
                print(claim.claim_id)
        return 0

    checks = registry.run(selection, primes, functools.partial(_fan_out, jobs=args.jobs))
    all_passed = all(c.passed for c in checks)
    if args.format == "json":
        from .report import write_json

        write_json(checks, sys.stdout)
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
        choices=[*SUITE_NAMES, "all"],
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
