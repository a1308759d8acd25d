"""Verification report records, and their JSON text."""

from __future__ import annotations

import json
from typing import NamedTuple, TextIO

__all__ = ["CheckResult", "write_json"]


class CheckResult(NamedTuple):
    """Outcome of a single verification, JSON-serializable."""

    claim_id: str
    p: int | None
    modulus: int | None
    lhs: int | str | None
    rhs: int | str | None
    passed: bool

    def to_json(self) -> dict:
        return {
            "claim-id": self.claim_id,
            "p": self.p,
            "modulus": self.modulus,
            "lhs-residue": self.lhs,
            "rhs-residue": self.rhs,
            "pass": self.passed,
        }


def _json_scalar(value) -> str:
    """``json.dumps(value)`` for a report field, with ints, None and bools written directly."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value) if type(value) is int else json.dumps(value)


def write_json(checks, stream: TextIO) -> None:
    """Write ``json.dumps([c.to_json() for c in checks])`` and a newline to ``stream``.

    The text goes out one check at a time, so no list of dicts or of encoded
    fragments is held; each distinct claim id is encoded once.
    """
    heads: dict = {}  # claim id -> the record's text up to its "p" value
    write = stream.write
    write("[")
    for i, c in enumerate(checks):
        head = heads.get(c.claim_id)
        if head is None:
            head = heads[c.claim_id] = f'{{"claim-id": {json.dumps(c.claim_id)}, "p": '
        write(
            f'{", " if i else ""}{head}{_json_scalar(c.p)}, "modulus": {_json_scalar(c.modulus)}, '
            f'"lhs-residue": {_json_scalar(c.lhs)}, "rhs-residue": {_json_scalar(c.rhs)}, '
            f'"pass": {_json_scalar(c.passed)}}}'
        )
    write("]\n")
