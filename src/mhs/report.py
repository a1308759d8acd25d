"""Verification report records shared by the congruence and binomial suites."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CheckResult", "ResidueClaim"]


@dataclass(frozen=True)
class CheckResult:
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


class ResidueClaim:
    """Base of the per-prime claims: ``sides(p)`` gives both sides mod p^exponent."""

    def check(self, p: int) -> CheckResult:
        lhs, rhs = self.sides(p)
        return CheckResult(self.claim_id, p, p**self.exponent, lhs, rhs, lhs == rhs)
