"""Integer partition enumeration and multiset arrangement counts."""

from __future__ import annotations

from collections import Counter
from math import factorial

from .algebra import _exact_quotient

__all__ = [
    "arrangement_count", "enumerate_partitions", "generalized_binomial", "partition_counts",
    "partitions_of",
]


def enumerate_partitions(j: int, r: int) -> list[tuple[int, ...]]:
    """All partitions of j into exactly r parts, non-increasing, largest first."""
    if r < 1 or r > j:
        return []
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int, parts_left: int, cap: int):
        if parts_left == 0:
            if remaining == 0:
                out.append(prefix)
            return
        low = -(-remaining // parts_left)  # ceil: keep parts non-increasing
        for part in range(min(cap, remaining - parts_left + 1), low - 1, -1):
            extend(prefix + (part,), remaining - part, parts_left - 1, part)

    extend((), j, r, j)
    return out


def partitions_of(d: int) -> list[tuple[int, ...]]:
    """All partitions of d, grouped by increasing number of parts."""
    return [lam for r in range(1, d + 1) for lam in enumerate_partitions(d, r)]


def partition_counts(d: int, cap: int) -> list[int]:
    """p(0), p(1), ..., p(m), the numbers of partitions: m = d, or the first m with p(m) > cap.

    Euler's pentagonal recurrence forms them in order, O(m^1.5) steps in all.
    p grows with m, so a count past cap bounds p(d) below without forming it.
    """
    counts = [1]
    while len(counts) <= d and counts[-1] <= cap:
        n, total, k = len(counts), 0, 1
        while (g := k * (3 * k - 1) // 2) <= n:  # the pentagonal numbers g and g + k
            term = counts[n - g] + (counts[n - g - k] if g + k <= n else 0)
            total += term if k % 2 else -term
            k += 1
        counts.append(total)
    return counts


def arrangement_count(lam: tuple[int, ...]) -> int:
    """Distinct orderings of the multiset lam: r! / prod of multiplicity factorials."""
    count = factorial(len(lam))
    for mult in Counter(lam).values():
        count //= factorial(mult)
    return count


def generalized_binomial(a: int, r: int) -> int:
    """C(a, r) = a(a-1)...(a-r+1) / r! for any integer a, always an integer."""
    if r < 0:
        raise ValueError("r must be >= 0")
    numerator = 1
    for i in range(r):
        numerator *= a - i
    return _exact_quotient(numerator, factorial(r))
