"""Verification report records shared by the congruence and binomial suites."""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["CheckResult", "check_residues"]


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


def check_residues(claim, p: int) -> CheckResult:
    """The ``check`` of a per-prime claim: ``claim.sides(p)`` gives both sides mod p^exponent."""
    lhs, rhs = claim.sides(p)
    return CheckResult(claim.claim_id, p, p**claim.exponent, lhs, rhs, lhs == rhs)
