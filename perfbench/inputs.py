"""Seeded operation decks for the four benchmark workloads.

Every op is one ``python -m mhs`` command line plus the structured parameters
the checkers and the tracer need.  Nothing here imports ``mhs``: the
program sees only the generated command-line arguments.

Op costs on one workload span a wide range (a prime window ending near 200
costs twice one ending near 130), so a plain random draw per op would make a
run's median depend on luck more than on the program.  Each deck therefore
draws one op from each of 8 or 16 equal-count bins of a cost proxy, and
orders the bins by bit reversal so that any prefix of the deck a run manages
to finish still spans the whole cost range.  verify-sweep, whose ops take
over a second, gets 8 bins, so that a run covers every entry of its deck.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache

def _stratified(candidates: list, proxy, rng: random.Random, k: int) -> list:
    """One candidate from each of k equal-count bins of ``proxy``, cheapest first."""
    ranked = sorted(candidates, key=lambda c: (proxy(c), repr(c)))
    return [rng.choice(ranked[len(ranked) * i // k : len(ranked) * (i + 1) // k]) for i in range(k)]


def _deck_order(picks: list) -> list:
    """The picks in bit-reversed index order (len(picks) is a power of two)."""
    bits = len(picks).bit_length() - 1
    return [picks[int(format(i, f"0{bits}b")[::-1], 2)] for i in range(len(picks))]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if _is_prime(n)]


@lru_cache(maxsize=None)
def _stuffle_support(s: tuple, t: tuple) -> frozenset:
    """Distinct compositions in the quasi-shuffle product H(s) * H(t)."""
    if not s:
        return frozenset([t])
    if not t:
        return frozenset([s])
    out = {(s[0],) + r for r in _stuffle_support(s[1:], t)}
    out |= {(t[0],) + r for r in _stuffle_support(s, t[1:])}
    out |= {(s[0] + t[0],) + r for r in _stuffle_support(s[1:], t[1:])}
    return frozenset(out)


def _linear_support(factors: tuple[tuple[int, ...], ...], cap: int | None = None) -> set | None:
    """Compositions in the stuffle linearization of a product, or None above ``cap``."""
    support = {factors[0]}
    for g in factors[1:]:
        grown: set = set()
        for s in support:
            grown |= _stuffle_support(s, g)
            if cap is not None and len(grown) > cap:
                return None
        support = grown
    return support


def linearized_terms(factors: tuple[tuple[int, ...], ...], cap: int | None = None) -> int | None:
    """Terms of the stuffle linearization of a product, or None above ``cap``.

    Stuffle multiplicities are positive, so no term cancels and this equals
    the number of terms ``mhs.linearize`` returns for the product.
    """
    support = _linear_support(factors, cap)
    return None if support is None else len(support)


def _summed_symbols(s: tuple) -> set:
    """Symbols of the telescoped sum_{k<=n} H_k(s), as in mhs.summation.sum_single."""
    if not s:
        return {()}
    if s[-1] > 1:
        return {s, s[:-1] + (s[-1] - 1,)}
    return {s, s[:-1]} | _summed_symbols(s[:-1])


def closed_form_symbols(factors: tuple[tuple[int, ...], ...]) -> int:
    """About the number of closed-form terms of a product: a cost proxy."""
    return len(set().union(*(_summed_symbols(s) for s in _linear_support(factors))))


def _product_text(factors) -> str:
    return ";".join(",".join(str(x) for x in f) for f in factors)


def verify_op(pmin: int, pmax: int) -> dict:
    return {
        "kind": "verify",
        "argv": ["verify", "--suite", "all", "--pmin", str(pmin), "--pmax", str(pmax)],
        "pmin": pmin,
        "pmax": pmax,
        "primes": primes_between(pmin, pmax),
    }


def derive_op(factors, check: int | None = None) -> dict:
    text = _product_text(factors)
    argv = ["derive", text]
    if check is not None:
        argv += ["--check", str(check)]
    return {
        "kind": "derive",
        "argv": argv,
        "product": text,
        "factors": [list(f) for f in factors],
        "check": check,
        "linearized_terms": linearized_terms(tuple(tuple(f) for f in factors)),
    }


def tables_op(weight: int) -> dict:
    return {"kind": "tables", "argv": ["tables", "--weight", str(weight)], "weight": weight}


def _verify_sweep(rng: random.Random) -> list[dict]:
    # Windows of 25-35 consecutive primes below 200; cost grows with the
    # primes in the window, so the proxy is their sum.
    primes = primes_between(7, 199)
    windows = [
        primes[i : i + length]
        for length in range(25, 36)
        for i in range(len(primes) - length + 1)
    ]
    picks = _deck_order(_stratified(windows, sum, rng, 8))
    return [verify_op(w[0], w[-1]) for w in picks]


def _verify_large_p(rng: random.Random) -> list[dict]:
    # One prime per op; the cold exact Bernoulli numbers dominate and grow
    # steeply with p, so the prime stops near 400.
    picks = _deck_order(_stratified(primes_between(250, 400), lambda p: p, rng, 16))
    return [verify_op(p, p) for p in picks]


# Products whose stuffle linearization exceeds this many terms take from
# about 3 s (900 terms) to minutes (5600 terms, 120 s) in the quadratic
# accumulation of sum_product, which would leave a run one or two ops.
LINEAR_TERM_CAP = 900
# Upper edges of 16 equally likely bins of the linearized term count of
# _random_product below the cap (quantiles of 6000 draws).  Fixed edges give
# every seed the same cost profile; a pool-relative split would not.
_SYMBOLIC_EDGES = (67, 94, 118, 147, 169, 205, 236, 274, 311, 349, 402, 449, 523,
                   638, 757, LINEAR_TERM_CAP + 1)


def _random_product(rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """3-5 factors of total depth 6-8 with parts in 1..3."""
    nfactors = rng.randint(3, 5)
    depth = rng.randint(6, 8)
    cuts = sorted(rng.sample(range(1, depth), nfactors - 1))
    depths = [b - a for a, b in zip([0] + cuts, cuts + [depth])]
    return tuple(tuple(rng.randint(1, 3) for _ in range(d)) for d in depths)


def _derive_symbolic(rng: random.Random) -> list[dict]:
    picks: list = [None] * len(_SYMBOLIC_EDGES)
    while None in picks:
        factors = _random_product(rng)
        linear = linearized_terms(factors, LINEAR_TERM_CAP)
        if linear is not None and picks[bisect_right(_SYMBOLIC_EDGES, linear)] is None:
            picks[bisect_right(_SYMBOLIC_EDGES, linear)] = factors
    deck = [derive_op(factors) for factors in _deck_order(picks)]
    # Two table regenerations per deck: rebase, expr_equal and derive_table.
    deck.insert(len(deck) // 4, tables_op(4))
    deck.insert(3 * len(deck) // 4, tables_op(5))
    return deck


def _partitions(total: int, largest: int | None = None) -> list[tuple[int, ...]]:
    largest = total if largest is None else largest
    if total == 0:
        return [()]
    return [
        (part,) + rest
        for part in range(min(total, largest), 0, -1)
        for rest in _partitions(total - part, part)
    ]


def _derive_check(rng: random.Random) -> list[dict]:
    # Column products prod_i H({1}^lam_i) of weight 3-5, checked to N points;
    # the cost is about N times the number of closed-form terms.
    columns = [
        tuple((1,) * part for part in lam) for w in (3, 4, 5) for lam in _partitions(w)
    ]
    candidates = [
        (n * closed_form_symbols(factors), n, factors)
        for factors in columns
        for n in range(300, 701, 25)
    ]
    picks = _stratified(candidates, lambda c: c[0], rng, 16)
    # The top bin is always the largest case, so that peak_rss_mb compares
    # the same op in every run; the eval cache grows with N and the symbols.
    picks[-1] = max(candidates)
    return [derive_op(factors, check=n) for _, n, factors in _deck_order(picks)]


WORKLOADS = {
    "verify-sweep": _verify_sweep,
    "verify-large-p": _verify_large_p,
    "derive-symbolic": _derive_symbolic,
    "derive-check": _derive_check,
}

# One cheap untimed invocation per subcommand a workload uses; set-up runs
# them so that byte-compilation and the page cache are paid before timing.
WARMUPS = {
    "verify-sweep": [verify_op(7, 7)],
    "verify-large-p": [verify_op(7, 7)],
    "derive-symbolic": [derive_op(((1,), (1, 1))), tables_op(4)],
    "derive-check": [derive_op(((1,), (1,)), check=30)],
}


def make_deck(workload: str, seed: int) -> list[dict]:
    """The op deck of ``workload`` for ``seed``: same seed, same deck."""
    _stuffle_support.cache_clear()
    rng = random.Random(f"{workload}:{seed}")
    deck = WORKLOADS[workload](rng)
    for i, op in enumerate(deck):
        op["id"] = i
    return deck
