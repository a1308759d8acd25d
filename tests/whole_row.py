"""The whole-row prime context: the oracle of the block-streamed one.

Before the context of a prime streamed k in blocks, it held every table as
one row over 0 <= k < p: the inverses, the tables j^(-s), the rows
H_k({1}^j) and the half unit tables.  That design is kept here, unchanged
in its arithmetic, so the tests can compare every value the claims read
against it; the moments of the units, which the context now forms in
place of the power sums, are summed here over every k < p.  Its memory grows with p, so the tests use it only at moderate
primes.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property

from mhs.residues import batch_inverse

_WEIGHT = 5


def residue_row(s: tuple, n: int, rows: dict, context) -> list:
    """The row [H_0(s), ..., H_m(s)] over Z / context.mod, m >= n, kept in ``rows``.

    Grows the row of each prefix s[:d] in place, shortest first, by
    H_j(s[:d]) = H_{j-1}(s[:d]) + H_{j-1}(s[:d-1]) * j^(-s_d), as whole-row
    passes.  n >= context.p raises ValueError: H_p needs 1/p.
    """
    if n >= context.p:
        raise ValueError(f"H_{n} needs 1/{context.p}, not a unit mod {context.mod}")
    row = rows.get(s)
    if row is None or len(row) <= n:
        depth = len(s)
        for d in range(depth + 1):
            key = s[:d]
            top = n - depth + d  # s[:d] is read up to H_top(s[:d])
            row = rows.get(key)
            if row is None:
                row = rows[key] = [0 if d else 1]
            if d == 0:
                row.extend([1] * (top + 1 - len(row)))
            elif len(row) <= top:
                units, start = context.inverse_powers(s[d - 1]), len(row)
                terms = map(operator.mul, prefix[start - 1 : top], units[start : top + 1])
                sums = itertools.accumulate(terms, initial=row[-1])  # unreduced
                row[start - 1 :] = map(operator.mod, sums, itertools.repeat(context.mod))
            prefix = row
    return row


class WholeRowContext:
    """Every sum a check at p reads, modulo mod = p^6, from rows over all k < p."""

    def __init__(self, p: int, mod: int):
        self.p, self.mod = p, mod
        self.rows: dict = {}  # composition -> [H_0, ..., H_{p-1}]
        self.powers: dict = {}  # s -> [0, 1^-s, ..., (p-1)^-s]
        self.product_sums: dict = {(): (p - 1) % mod}
        self.power_sums: dict = {}

    @cached_property
    def inverses(self) -> list:
        """[0, 1/1, ..., 1/(p-1)], from one batch inversion."""
        return [0] + batch_inverse(range(1, self.p), self.mod)

    def inverse_powers(self, s: int) -> list:
        """[0, 1^-s, ..., (p-1)^-s]."""
        powers, inverses, mod = self.powers, self.inverses, self.mod
        powers.setdefault(1, inverses)
        for t in range(len(powers) + 1, s + 1):
            powers[t] = [x * y % mod for x, y in zip(powers[t - 1], inverses)]
        return powers[s]

    def mhs(self, s: tuple) -> int:
        """H_{p-1}(s), as sum_{j<p} H_{j-1}(s[:-1]) * j^(-s_d)."""
        if not s:
            return 1
        prefix = residue_row(s[:-1], self.p - 1, self.rows, self)
        return sum(map(operator.mul, prefix, self.inverse_powers(s[-1])[1:])) % self.mod

    @cached_property
    def units(self) -> tuple[list, list]:
        """(u, 1/u) for k <= (p-1)/2, u_k = (-1)^k C(p-1, k) = prod_{j<=k} (1 - p/j)."""
        p, mod, inverses = self.p, self.mod, self.inverses
        units, inverted = [1], [1]
        for j in range(1, (p + 1) // 2):
            units.append(units[-1] * (1 - p * inverses[j]) % mod)
            inverted.append(inverted[-1] * -j * inverses[p - j] % mod)
        return units, inverted

    def product_sum(self, lam: tuple[int, ...]) -> int:
        """sum_{k=1}^{p-1} prod_i H_k({1}^lam_i)."""
        sums = self.product_sums
        lam = tuple(sorted(lam, reverse=True))
        if lam not in sums:
            if sum(lam) <= _WEIGHT:
                ones = {
                    j: residue_row((1,) * j, self.p - 1, self.rows, self)
                    for j in range(1, _WEIGHT + 1)
                }
                for j, row in ones.items():
                    self._sum_extensions((j,), row, _WEIGHT - j, ones)
            else:
                mod, p = self.mod, self.p
                row = residue_row((1,) * lam[0], p - 1, self.rows, self)
                for j in lam[1:]:
                    ones = residue_row((1,) * j, p - 1, self.rows, self)
                    row = [x * y % mod for x, y in zip(row, ones)]
                sums[lam] = sum(row) % mod
        return sums[lam]

    def _sum_extensions(self, lam: tuple, row: list, left: int, ones: dict) -> None:
        mod, sums = self.mod, self.product_sums
        if lam not in sums:
            sums[lam] = sum(row) % mod
        for j in range(1, min(lam[-1], left) + 1):
            child = lam + (j,)
            if j < left:
                child_row = [x * y % mod for x, y in zip(row, ones[j])]
                self._sum_extensions(child, child_row, left - j, ones)
            elif child not in sums:
                sums[child] = sum(map(operator.mul, row, ones[j])) % mod

    def power_sum(self, a: int) -> int:
        """sum_{k=0}^{p-1} u_k^a, twice the half's sum less the middle term.

        A miss forms every exponent from 1 to max(|a|, 6) of the same sign,
        one running row over the half table.
        """
        sums, mod = self.power_sums, self.mod
        if a == 0:
            sums[0] = self.p % mod
        elif a not in sums:
            half = row = self.units[a < 0]
            for exponent in range(1, max(abs(a), 6) + 1):
                if exponent > 1:
                    row = [x * b % mod for x, b in zip(row, half)]
                sums.setdefault(exponent if a > 0 else -exponent, (2 * sum(row) - row[-1]) % mod)
        return sums[a]

    def steps_product(self, c: int, n: int) -> int:
        """prod_{m=1}^{n} (1 + c*p/m) modulo mod."""
        cp, mod = c * self.p, self.mod
        total = 1
        for inverse in self.inverses[1 : n + 1]:
            total = total * (1 + cp * inverse) % mod
        return total

    @cached_property
    def binomials(self) -> tuple[int, int, int]:
        """What the streamed context's ``binomials`` holds, from the whole rows: m <= p - 1."""
        p, mod, inverses = self.p, self.mod, self.inverses
        central, total = 1, 0
        for k in range(1, p):
            central = central * 2 * (2 * k - 1) * inverses[k] % mod
            total += central * inverses[k]
        return self.steps_product(1, p - 1), self.steps_product(2, p - 1), total % mod

    def moments(self, n: int) -> tuple:
        """sum_{k<p} (u_k - 1)^r for r < n, with u_k = prod_{j<=k} (1 - p/j) over every k < p."""
        p, mod, inverses = self.p, self.mod, self.inverses
        totals, u = [0] * n, 1
        for k in range(p):
            u = u * (1 - p * inverses[k]) % mod  # inverses[0] = 0: u_0 = 1
            term = 1
            for r in range(n):
                totals[r] += term
                term = term * (u - 1) % mod
        return tuple(total % mod for total in totals)
