"""The residue-only per-prime route against the exact route it replaces.

Per-prime checks use X = bernoulli_invariant(p) only modulo p^2, read off
power sums by Faulhaber's formula.  The exact Bernoulli numbers stay as the
oracle; both routes are compared here for every prime 7 <= p <= 400.  The
per-prime context's H_k(s) rows are checked against the exact rows.
"""

import gc
import importlib
import os
import subprocess
import sys
import threading
from fractions import Fraction
from math import comb, prod

import pytest

from mhs import binomial_sums, cli, congruences
from mhs.bernoulli import bernoulli, bernoulli_invariant, bernoulli_invariant_mod
from mhs.binomial_sums import (
    CAI_GRANVILLE_CLAIMS,
    COROLLARY_CLAIMS,
    binomial_power_sum,
    binomial_power_sum_closed_form,
    binomial_power_sum_via_mhs,
    central_binomial_sum_exact,
    cai_granville_suite,
    central_binomial_sum_mod,
    corollary_suite,
    generalized_binomial,
    moment_sum,
    theorem_claims,
    theorem_suite,
)
from mhs.congruences import (
    BASE_CLAIMS,
    SUM_CLAIMS,
    base_congruence_suite,
    check_chunk,
    homogeneous_product_sum_mod,
    mhs_mod,
    prime_chunks,
    prime_context,
    sum_congruence_suite,
)
from mhs.core import eval_mhs, mhs_prefix_values
from mhs.partitions import partitions_of
from mhs.residues import batch_inverse, primes_in_range, reduce_mod
from whole_row import WholeRowContext, residue_row

PRIMES = primes_in_range(7, 400)


def _convolution_bernoulli(mmax: int) -> list[Fraction]:
    """B_0..B_mmax from sum_{j<=m} C(m+1, j) B_j = 0, the reference recurrence."""
    values = [Fraction(1)]
    for m in range(1, mmax + 1):
        total = sum(comb(m + 1, j) * values[j] for j in range(m) if values[j])
        values.append(-total / (m + 1))
    return values


def test_bernoulli_matches_convolution_recurrence():
    reference = _convolution_bernoulli(400)
    for m, expected in enumerate(reference):
        if m == 1:
            continue  # the recurrence gives -1/2, and so does bernoulli(1)
        assert bernoulli(m) == expected, m
    assert bernoulli(1) == reference[1] == Fraction(-1, 2)


def test_bernoulli_grows_its_table_geometrically(monkeypatch):
    module = importlib.import_module("mhs.bernoulli")
    expected = {m: bernoulli(m) for m in range(2, 801, 2)}
    sizes = []

    def recording(n, real=module._tangent_numbers):
        sizes.append(n)
        return real(n)

    monkeypatch.setattr(module._local, "table", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setattr(module, "_tangent_numbers", recording)
    for m in range(2, 801, 2):
        assert bernoulli(m) == expected[m], m
    # one table per call would cost sum_{n<=400} n^2, about 133 * 400^2
    assert sum(n * n for n in sizes) <= 8 * 400**2, sizes


def test_bernoulli_threads_match_one_thread():
    """Four threads asking for interleaved ascending B_m read one thread's values."""
    # A fresh process, so that no table is filled before the threads start.
    script = (
        "import sys, threading\n"
        "from mhs.bernoulli import bernoulli\n"
        "sys.setswitchinterval(1e-6)\n"
        "seen = [None] * 4\n"
        "def worker(i):\n"
        "    seen[i] = [(m, bernoulli(m)) for m in range(i, 600, 4)]\n"
        "threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join()\n"
        "for values in seen:\n"
        "    for m, b in values:\n"
        "        print(m, b)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    values = dict(line.split() for line in done.stdout.splitlines())
    assert len(values) == 600
    for m, b in values.items():
        assert Fraction(b) == bernoulli(int(m)), m


def _reference_power_sums(p: int, mod: int) -> tuple[int, int]:
    """The loop that formed X's power sums before the sieve: one pow per j."""
    low = high = 0
    for j in range(1, p):
        power = pow(j, p - 3, mod)
        low += power
        high += (power * j) ** 2
    return low % mod, high % mod


def test_power_sums_of_x_match_one_pow_per_j():
    module = importlib.import_module("mhs.bernoulli")
    for p in PRIMES + [10007]:
        assert module._power_sums_mod(p, p**3) == _reference_power_sums(p, p**3), p


def test_invariant_mod_matches_exact():
    for p in PRIMES:
        assert bernoulli_invariant_mod(p) == reduce_mod(bernoulli_invariant(p), p, 2).value, p


def _exact_rhs(claim, p: int) -> Fraction:
    x = bernoulli_invariant(p)
    return sum(
        (Fraction(coeff) * p**i * x**j for (i, j), coeff in claim.rhs_terms),
        Fraction(0),
    )


def test_claim_rhs_matches_exact():
    for p in PRIMES:
        for claim in BASE_CLAIMS + SUM_CLAIMS:
            exact = reduce_mod(_exact_rhs(claim, p), p, claim.exponent).value
            assert claim.rhs_value(p) == exact, (claim.claim_id, p)


def test_closed_form_matches_exact():
    for p in PRIMES:
        x = bernoulli_invariant(p)
        for a in range(-6, 7):
            exact = Fraction((a - 1) * p, a * p - 1) * (
                1 + Fraction(a * (a + 1) * (3 * a - 2), 6) * p**3 * x
            )
            assert binomial_power_sum_closed_form(a, p) == reduce_mod(exact, p, 6), (a, p)


def test_streamed_central_binomial_matches_exact():
    for p in PRIMES:
        lhs, rhs = central_binomial_sum_exact(p)
        expected = (reduce_mod(lhs, p, 4).value, reduce_mod(rhs, p, 4).value)
        assert central_binomial_sum_mod(p) == expected, p


def test_verify_never_builds_exact_bernoulli(monkeypatch, capsys):
    module = importlib.import_module("mhs.bernoulli")
    exact = (module.bernoulli, module.bernoulli_invariant)

    def refuse(*args):
        raise AssertionError("exact Bernoulli route reached from verify")

    for name, mod in list(sys.modules.items()):
        if name == "mhs" or name.startswith("mhs."):
            for attr, value in list(vars(mod).items()):
                if any(value is fn for fn in exact):
                    monkeypatch.setattr(mod, attr, refuse)
    code = cli.main(["verify", "--suite", "all", "--pmin", "7", "--pmax", "31"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"


# ---------------------------------------------------------------------------
# The per-prime context: rows H_k(s) mod p^6, shared by every check
# at p and read mod p^e, against the exact rows over Q.
# ---------------------------------------------------------------------------

TABLE_PRIMES = [7, 11, 13, 31]
SHAPES = [(), (2, 1)] + [claim.target for claim in BASE_CLAIMS]
PARTITIONS = [claim.target for claim in SUM_CLAIMS]


def _exact_tables(p: int):
    """H_{p-1}(s) for each shape, and each partition's sum of products, over Q."""
    mhs = {s: eval_mhs(p - 1, s) for s in SHAPES}
    homogeneous = {d: mhs_prefix_values(p - 1, (1,) * d) for d in range(1, 6)}
    sums = {}
    for lam in PARTITIONS:
        total = Fraction(0)
        for k in range(1, p):
            term = Fraction(1)
            for part in lam:
                term *= homogeneous[part][k]
            total += term
        sums[lam] = total
    return mhs, sums


def _interleaved_schedule():
    """(p, e) visits alternating primes p, q, p with e ascending, then descending."""
    exponents = list(range(1, 7)) + list(range(6, 0, -1))
    for p, q in zip(TABLE_PRIMES, TABLE_PRIMES[1:] + TABLE_PRIMES[:1]):
        for e in exponents:
            for prime in (p, q, p):
                yield prime, e


def test_residue_table_matches_exact_interleaved(monkeypatch):
    monkeypatch.setattr(congruences, "_local", threading.local())  # each visit switches contexts
    exact = {p: _exact_tables(p) for p in TABLE_PRIMES}
    for p, e in _interleaved_schedule():
        prime_context(p, e).product_sums[p].clear()  # recompute from the rows
        mhs, sums = exact[p]
        for s in SHAPES:
            assert mhs_mod(s, p, e) == reduce_mod(mhs[s], p, e), (s, p, e)
        for lam in PARTITIONS:
            expected = reduce_mod(sums[lam], p, e).value
            assert homogeneous_product_sum_mod(lam, p, e) == expected, (lam, p, e)


@pytest.mark.parametrize("e", [1, 3, 6])
def test_residue_row_refuses_index_divisible_by_p(monkeypatch, e):
    """No pass inverts a multiple of p: its blocks stop at k = p - 1, whatever their length."""
    p = 7
    inverted = []

    def recording(values, mod, real=congruences.batch_inverse):
        values = list(values)
        inverted.extend(values)
        return real(values, mod)

    monkeypatch.setattr(congruences, "batch_inverse", recording)
    monkeypatch.setattr(congruences, "_BLOCK", 4)  # blocks 1..4 and 5..6
    monkeypatch.setattr(congruences, "_local", threading.local())  # no context of p held
    for s in SHAPES:
        assert mhs_mod(s, p, e) == reduce_mod(eval_mhs(p - 1, s), p, e), (s, e)
    binomial_power_sum(-2, p, e)
    central_binomial_sum_mod(p)
    assert inverted and all(value % p for value in inverted)
    # The whole-row oracle's row builder refuses the index outright.
    oracle = WholeRowContext(p, p**6)
    for s, n in [((1,), p), ((2, 1), p + 3), ((3,), 2 * p)]:
        with pytest.raises(ValueError):
            residue_row(s, n, {}, oracle)


def test_threads_share_residue_table_safely():
    """Threads switching primes, each through its own context, all read correct values."""
    primes = [7, 11, 13, 17, 19]
    exact = {p: {s: eval_mhs(p - 1, s) for s in SHAPES} for p in primes}
    work = [(p, s, e) for p in primes for s in SHAPES for e in (1, 4, 6)]
    sums = {p: homogeneous_product_sum_mod((2, 1), p, 6) for p in primes}
    errors = []

    def worker(offset):
        for i in range(len(work)):
            p, s, e = work[(7 * i + offset) % len(work)]
            if mhs_mod(s, p, e) != reduce_mod(exact[p][s], p, e):
                errors.append((s, p, e))
            if homogeneous_product_sum_mod((2, 1), p, 6) != sums[p]:
                errors.append(((2, 1), p, 6))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_residue_work_happens_once_per_prime(monkeypatch):
    """At a prime of one block the five suites' claims, checked together, run each pass once.

    Each pass inverts its own block.  Checked one suite at a time in fresh
    contexts, each suite forms the groups it declares and no others.
    """
    p = 101
    inversions, passes = [], []

    def counting_inverse(values, mod):
        values = list(values)
        inversions.append((len(values), mod))
        return batch_inverse(values, mod)

    def counting_harmonic(
        self, compositions, partitions, binomials, real=congruences.PrimeContext._sum_harmonic
    ):
        passes.append((len(compositions), len(partitions), binomials))
        return real(self, compositions, partitions, binomials)

    def counting_powers(self, real=congruences.PrimeContext._sum_powers):
        passes.append("powers")
        return real(self)

    monkeypatch.setattr(congruences, "batch_inverse", counting_inverse)
    monkeypatch.setattr(congruences.PrimeContext, "_sum_harmonic", counting_harmonic)
    monkeypatch.setattr(congruences.PrimeContext, "_sum_powers", counting_powers)
    suites = {  # in the registry's order, as verify checks them
        base_congruence_suite: BASE_CLAIMS,
        sum_congruence_suite: SUM_CLAIMS,
        theorem_suite: theorem_claims(),
        cai_granville_suite: CAI_GRANVILLE_CLAIMS,
        corollary_suite: COROLLARY_CLAIMS,
    }
    results = check_chunk([claim for claims in suites.values() for claim in claims], (p,))
    assert len(results) == sum(map(len, suites.values())) and all(r.passed for r in results)

    # One harmonic pass forms every base claim's H_{p-1}(s), every product
    # sum of weight <= 5 and the binomials: each base claim's prefix is a row
    # H({1}^j), and so is every term of F_1 and F_2.
    everything = len(BASE_CLAIMS), len(congruences.PARTITIONS)
    assert passes == [(*everything, True), "powers"]
    # 1/k for each pass, once per block and once for every e at p: the power
    # pass inverts no unit
    assert inversions == [(p - 1, p**6), ((p - 1) // 2, p**6)]

    alone = {
        base_congruence_suite: [(len(BASE_CLAIMS), 0, False)],
        sum_congruence_suite: [(0, len(congruences.PARTITIONS), False)],
        theorem_suite: [(0, len(congruences.PARTITIONS), False), "powers"],
        cai_granville_suite: [(0, 0, True), "powers"],
        corollary_suite: [(0, 0, True)],
    }
    for suite, expected in alone.items():
        passes.clear()
        assert all(r.passed for r in suite(p)), suite.__name__
        assert passes == expected, suite.__name__


def _reference_rows(p: int, mod: int, depth: int) -> list[list[int]]:
    """[H_k({1}^j) for k < p] for j = 0..depth, one k at a time."""
    rows = [[1] * p]
    for _ in range(depth):
        prefix, row = rows[-1], [0]
        for k in range(1, p):
            row.append((row[k - 1] + prefix[k - 1] * pow(k, -1, mod)) % mod)
        rows.append(row)
    return rows


def _reference_product_sum(lam: tuple, rows: list, p: int, mod: int) -> int:
    """The per-k loop that summed a product of rows before the whole-row walk."""
    total = 0
    for k in range(1, p):
        term = 1
        for part in lam:
            term = term * rows[part][k] % mod
        total += term
    return total % mod


def _power_sum(context, a: int, p: int) -> int:
    """sum_k u_k^a modulo p^6 as a claim reads it: a's row C(a, r), r < 6, times p's moments."""
    row = [generalized_binomial(a, r) for r in range(6)]
    return moment_sum(row, context.unit_moments(p), p**6)


def _reference_power_sum(a: int, p: int, mod: int) -> int:
    """The per-k loop that summed u_k^a before the running rows: one pow per k."""
    return _reference_unit_power_sums([a], p, mod)[a]


def _reference_unit_power_sums(exponents, p: int, mod: int) -> dict:
    """a -> sum_k u_k^a for each a in ``exponents``, by :func:`_reference_power_sum`'s loop."""
    units = [1]
    for k in range(1, p):
        units.append(units[-1] * (1 - p * pow(k, -1, mod)) % mod)
    return {a: sum(pow(u, a, mod) for u in units) % mod for a in exponents}


KERNEL_PARTITIONS = [lam for w in range(1, 6) for lam in partitions_of(w)] + [(3, 2, 1)]
KERNEL_EXPONENTS = range(-12, 13)
KEPT = {
    "primes",
    "mhs_sums",
    "product_sums",
    "moments",
    "binomial_values",
    "invariants",
    "expansions",
    "mod",
    "lift",
}


@pytest.mark.parametrize("p", PRIMES + [1009, 10007, 100003])
def test_row_kernels_match_the_per_k_loops(monkeypatch, p):
    """The block passes' sums against the per-k loops, and against the whole rows above 1000.

    Below 400 every power sum for -12 <= a <= 12 and every product sum of
    KERNEL_PARTITIONS is checked against its per-k loop, in blocks of 10 at
    every e of 1, 4 and 6; at 7, 11 and 101 also in fresh contexts filled
    in other orders.  Above 1000, where the loops would take minutes, the
    power sums are checked against the whole-row context.  At every p the
    direct moments equal the expansion moments, and at 101 and 1009 the
    power sums at a = -1000, 777 and 1000, far past the six terms of the
    moments, equal the closed form.
    """
    if p < 1000:
        monkeypatch.setattr(congruences, "_BLOCK", 10)  # passes in blocks, the last one short
    monkeypatch.setattr(congruences, "_local", threading.local())  # no context of p held
    mod = p**6
    if p > 1000:
        whole = WholeRowContext(p, mod)
        powers = {a: whole.power_sum(a) for a in KERNEL_EXPONENTS}
    else:
        powers = _reference_unit_power_sums(KERNEL_EXPONENTS, p, mod)
    products = {}
    if p in (7, 11, 101):
        rows = _reference_rows(p, mod, 6)
        products = {lam: _reference_product_sum(lam, rows, p, mod) for lam in KERNEL_PARTITIONS}
    for e in (1, 4, 6):
        for a, expected in powers.items():
            assert binomial_power_sum(a, p, e).value == expected % p**e, (a, p, e)
        for lam, expected in products.items():
            assert homogeneous_product_sum_mod(lam, p, e) == expected % p**e, (lam, p, e)
    if products:
        # Fresh contexts, filled in other orders and batches, keep only sums,
        # M and the lift: no table outlives its pass.
        ascending, batched = congruences.PrimeContext((p,)), congruences.PrimeContext((p,))
        batched.fill(["powers"])
        for lam in reversed(KERNEL_PARTITIONS):
            assert batched.product_sum(lam, p) == products[lam], (lam, p)
        for lam in KERNEL_PARTITIONS:
            assert ascending.product_sum(lam[::-1], p) == products[lam], (lam, p)
        for a in KERNEL_EXPONENTS:
            direct = _power_sum(ascending, a, p), _power_sum(batched, a, p)
            assert direct == (powers[a], powers[a]), (a, p)
        for context in (ascending, batched):
            assert set(vars(context)) == KEPT
            sums = [*context.product_sums[p].values(), *context.moments[p]]
            assert all(type(total) is int for total in sums)
    context = congruences.PrimeContext((p,))
    context.fill(["powers"])  # the direct moments, from the power pass
    assert len(context.moments[p]) == 6 and context.moments[p] == context.expansion_moments(p), p
    if p in (101, 1009):
        for a in (-1000, 777, 1000):
            closed = binomial_power_sum_closed_form(a, p).value
            expansion = binomial_power_sum_via_mhs(a, p).value
            assert binomial_power_sum(a, p).value == closed == expansion, (a, p)


def _library_oracle(p: int) -> dict:
    """H_{p-1}(1,2) mod p^2, S(2,1) mod p^3, the central-binomial sum mod p^4 and sum_k u_k^2.

    The exact rationals at p = 101; at p = 10007 they take about 50 s on a
    2-vCPU VM, so the whole-row oracle stands in.  At every p,
    sum_k C(p-1, k)^2 = C(2p-2, p-1) by Vandermonde.
    """
    if p > 1000:
        whole = WholeRowContext(p, p**6)
        values = whole.mhs((1, 2)), whole.product_sum((2, 1)), whole.binomials[2]
    else:
        product = sum(eval_mhs(k, (1, 1)) * eval_mhs(k, (1,)) for k in range(1, p))
        values = eval_mhs(p - 1, (1, 2)), product, central_binomial_sum_exact(p)[0]
    residues = (reduce_mod(value, p, e).value for value, e in zip(values, (2, 3, 4)))
    return dict(zip(("mhs", "sum", "central"), residues), power=comb(2 * p - 2, p - 1) % p**6)


@pytest.mark.parametrize("p", [101, 10007])
def test_a_library_read_forms_only_the_group_it_reads(monkeypatch, p):
    """At a fresh prime, a public residue function forms its value's group and no other.

    Each read starts from a context that holds nothing, and the value it
    returns still equals the oracle's.
    """
    oracle = _library_oracle(p)
    nothing = {"mhs": {()}, "sum": {()}, "binomials": False, "powers": False}

    def fresh(read):
        """read() in an empty context, and what the context then holds at p."""
        monkeypatch.setattr(congruences, "_local", threading.local())
        value = read()
        held = congruences._local.held
        return value, {
            "mhs": set(held.mhs_sums[p]),
            "sum": set(held.product_sums[p]),
            "binomials": p in held.binomial_values,
            "powers": p in held.moments,
        }

    value, formed = fresh(lambda: central_binomial_sum_mod(p)[0])
    assert value == oracle["central"] and formed == {**nothing, "binomials": True}
    value, formed = fresh(lambda: mhs_mod((1, 2), p, 2).value)
    targets = {(), *(claim.target for claim in BASE_CLAIMS)}
    assert value == oracle["mhs"] and formed == {**nothing, "mhs": targets}
    value, formed = fresh(lambda: homogeneous_product_sum_mod((2, 1), p, 3))
    assert value == oracle["sum"] and formed == {**nothing, "sum": {(), *congruences.PARTITIONS}}

    def refuse(*args):
        raise AssertionError("a power sum ran a harmonic pass")

    monkeypatch.setattr(congruences.PrimeContext, "_sum_harmonic", refuse)
    value, formed = fresh(lambda: binomial_power_sum(2, p).value)
    assert value == oracle["power"] and formed == {**nothing, "powers": True}


@pytest.mark.parametrize("lam", [(30,), (7, 2, 1)])
def test_a_heavy_product_sum_sums_its_partition_alone(lam):
    # Above weight 5 a miss sums lam alone, not every partition of its weight
    # (5,604 of weight 30), so the context keeps two sums: the empty one and lam's.
    p = 101
    prime_context(13)  # a context of p from an earlier test is replaced
    total = sum(prod(eval_mhs(k, (1,) * part) for part in lam) for k in range(1, p))
    for e in (1, 6):
        assert homogeneous_product_sum_mod(lam, p, e) == reduce_mod(total, p, e).value, e
        assert homogeneous_product_sum_mod(lam[::-1], p, e) == reduce_mod(total, p, e).value, e
    assert set(prime_context(p).product_sums[p]) == {(), lam}


@pytest.mark.parametrize("p", [7, 101])
def test_inverse_power_tables_are_the_powers_of_the_inverses(monkeypatch, p):
    monkeypatch.setattr(congruences, "_BLOCK", 16)
    mod = p**6
    covered = []
    for start, inverses, *block in congruences.PrimeContext((p,))._blocks({p - 1: p}):
        assert block == [mod, p, None if start + len(inverses) < p else p]  # Z/p^6, P = p
        assert inverses == [pow(k, -1, mod) for k in range(start, start + len(inverses))]
        covered += range(start, start + len(inverses))
    assert covered == list(range(1, p))
    # H_{p-1}(s) of one part is the sum of the table k^(-s), which the
    # harmonic pass builds in each block from the tables below it.
    monkeypatch.setattr(congruences, "_local", threading.local())  # no context held
    for s in (3, 1, 5, 2):
        expected = sum(pow(k, -s, mod) for k in range(1, p)) % mod
        assert mhs_mod((s,), p, 6).value == expected, (s, p)


def test_single_binomial_at_a_1_runs_no_product():
    claim = next(c for c in CAI_GRANVILLE_CLAIMS if c.claim_id.endswith(":a=1"))
    context = congruences.PrimeContext((101,))
    assert claim.sides(context, 101) == (0, 0)
    assert 101 not in context.binomial_values  # a product scaled by a - 1 = 0


def test_binomials_without_comb_match_comb():
    """The two binomials the per-prime checks form from 1/m, against math.comb."""
    for p in PRIMES + [1009, 10007]:
        *single, wolstenholme = check_chunk(CAI_GRANVILLE_CLAIMS + COROLLARY_CLAIMS[1:], (p,))
        for a, result in zip((1, 2, 3), single):
            assert result.rhs == comb(a * p - 2, p - 1) % p**4, (a, p)
        assert wolstenholme.lhs == comb(2 * p - 1, p - 1) % p**3, p


def test_per_prime_suites_run_without_comb(monkeypatch):
    def refuse(*args):
        raise AssertionError("math.comb on the per-prime path")

    monkeypatch.setattr(binomial_sums, "comb", refuse)
    p = 23
    results = (
        base_congruence_suite(p)
        + sum_congruence_suite(p)
        + theorem_suite(p)
        + cai_granville_suite(p)
        + corollary_suite(p)
    )
    assert len(results) == 61 and all(r.passed for r in results)


def test_replaced_context_leaves_no_cycle():
    """A context's rows are freed when it is dropped or replaced, not at some later collection."""
    gc.collect()
    gc.disable()
    try:
        for p in (101, 103):
            theorem_suite(p)
            sum_congruence_suite(p)
            homogeneous_product_sum_mod((2, 1), p, 3)  # this thread keeps the context of p
        prime_context(107)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_claim_sides_read_what_the_public_functions_return():
    """Each per-prime claim reads the chunk's context it is handed; the public functions agree."""
    claims = {claim.claim_id: claim for claim in theorem_claims()}
    for chunk in prime_chunks(PRIMES):
        context = congruences.PrimeContext(chunk)
        for p in chunk:
            for claim in BASE_CLAIMS + SUM_CLAIMS:
                e = claim.exponent
                if claim.kind == "mhs":
                    lhs = mhs_mod(claim.target, p, e).value
                else:
                    lhs = homogeneous_product_sum_mod(claim.target, p, e)
                assert claim.sides(context, p) == (lhs, claim.rhs_value(p)), (claim.claim_id, p)
            sides = {claim_id: claim.sides(context, p) for claim_id, claim in claims.items()}
            for a in range(-6, 7):
                direct = binomial_power_sum(a, p).value
                closed = binomial_power_sum_closed_form(a, p).value
                expansion = binomial_power_sum_via_mhs(a, p).value
                assert sides[f"binomial-power-sum:a={a}"] == (direct, closed), (a, p)
                assert sides[f"binomial-power-sum-expansion:a={a}"] == (expansion, direct), (a, p)
            for a in (0, 1):
                anchor = sides[f"binomial-power-sum-anchor:a={a}"]
                assert anchor[0] == binomial_power_sum(a, p).value, (a, p)
            for a, claim in zip((1, 2, 3), CAI_GRANVILLE_CLAIMS):
                assert claim.sides(context, p)[0] == binomial_power_sum(a, p, 4).value, (a, p)
            assert COROLLARY_CLAIMS[0].sides(context, p) == central_binomial_sum_mod(p), p


def test_power_sums_refuse_p_2():
    # The half range rests on u_(p-1-k) = u_k, which needs an odd p: at p = 2
    # it would give 1 for every a, not 1 + (-1)^a.
    context = prime_context(2)  # admitted: mhs_mod and the product sums hold at p = 2
    with pytest.raises(ValueError, match="p = 2"):
        context.unit_moments(2)
    with pytest.raises(ValueError, match="p = 2"):
        context.fill(["powers"])
    assert context.moments == {}


@pytest.mark.parametrize("p, sums", [(3, (3, 0, 6, 366)), (5, (5, 0, 70, 5210))])
def test_power_sums_at_the_odd_primes_below_7(p, sums):
    """sum_k u_k^a at a = 0, 1, 2, -1 modulo p^6, below the claims' primes."""
    context = congruences.PrimeContext((p,))
    assert tuple(_power_sum(context, a, p) for a in (0, 1, 2, -1)) == sums
    assert sums == tuple(_reference_power_sum(a, p, p**6) for a in (0, 1, 2, -1))


@pytest.mark.parametrize("p", [7, 11, 101, 10007])
def test_half_unit_tables_and_power_sums_match_the_full_row(monkeypatch, p):
    monkeypatch.setattr(congruences, "_BLOCK", 16)
    mod = p**6
    full = [1]  # u_k for every k < p, one k at a time
    for k in range(1, p):
        full.append(full[-1] * (1 - p * pow(k, -1, mod)) % mod)
    assert full == full[::-1]  # u_(p-1-k) = u_k: the half the passes run is all of it
    context = congruences.PrimeContext((p,))
    units = [1]
    for _, inverses, _, lift, _ in context._blocks({(p - 1) // 2: p}):  # as the pass does
        units += congruences._half_units(inverses, lift, units[-1], mod)
    assert units == full[: (p + 1) // 2]
    context.fill(["powers"])
    moments = tuple(sum(pow(u - 1, r, mod) for u in full) % mod for r in range(6))
    assert context.moments[p] == moments
    for a in range(-6, 7):
        assert _power_sum(context, a, p) == _reference_power_sum(a, p, mod), (a, p)


def test_the_a0_claims_fail_when_the_half_units_lose_the_middle_unit(monkeypatch):
    # sum_k u_k^0 = p is counted by the power pass, so a pass that drops u_m
    # from the half k <= m = (p-1)/2 must fail every a = 0 claim.
    p = 101
    ids = [f"binomial-power-sum{route}:a=0" for route in ("", "-expansion", "-anchor")]
    claims = [claim for claim in theorem_claims() if claim.claim_id in ids]
    assert [claim.claim_id for claim in claims] == ids
    assert all(r.passed for r in check_chunk(claims, (p,)))
    half_units = congruences._half_units

    def without_the_middle(inverses, lift, carry, mod):
        return half_units(inverses, lift, carry, mod)[:-1]  # p < _BLOCK: one block, to the middle

    monkeypatch.setattr(congruences, "_half_units", without_the_middle)
    results = check_chunk(claims, (p,))
    assert [r.claim_id for r in results] == ids
    assert not any(r.passed for r in results)


def _passes_of_a_sweep(monkeypatch, capsys, suite: str, checks: int) -> tuple[list, list, list]:
    """The chunks ``verify --suite <suite>`` builds over 7..199, their passes and contexts."""
    built, passes, contexts = [], [], []

    class Counting(congruences.PrimeContext):
        def __init__(self, primes, *args, **kwargs):
            built.append(primes)
            contexts.append(self)
            super().__init__(primes, *args, **kwargs)

        def _sum_harmonic(self, compositions, partitions, binomials):
            passes.append(("harmonic", self.primes, len(compositions), len(partitions), binomials))
            super()._sum_harmonic(compositions, partitions, binomials)

        def _sum_powers(self):
            passes.append(("powers", self.primes))
            super()._sum_powers()

    monkeypatch.setattr(congruences, "PrimeContext", Counting)
    code = cli.main(["verify", "--suite", suite, "--pmin", "7", "--pmax", "199"])
    assert code == 0
    assert capsys.readouterr().out.endswith(f"{checks}/{checks} checks passed\n")
    assert [p for chunk in built for p in chunk] == primes_in_range(7, 199)
    assert built == congruences.prime_chunks(primes_in_range(7, 199)) and len(built) > 2
    assert all(list(chunk) == sorted(set(chunk)) for chunk in built)
    return built, passes, contexts


def test_verify_builds_one_context_per_chunk(monkeypatch, capsys):
    """Each prime of a run lies in exactly one chunk, and `all` walks k twice per chunk.

    One harmonic walk forms the base claims, the product sums and the
    binomials together, and one power walk forms the power sums.
    """
    built, passes, _ = _passes_of_a_sweep(monkeypatch, capsys, "all", 2659)
    everything = (len(BASE_CLAIMS), len(congruences.PARTITIONS), True)
    expected = [("harmonic", chunk, *everything) for chunk in built]
    expected += [("powers", chunk) for chunk in built]
    assert sorted(passes) == sorted(expected)


def test_a_sweep_reads_no_thread_held_context(monkeypatch, capsys):
    """A sweep checks each chunk from the context it builds, and leaves no context held.

    With ``prime_context`` refused and no context held, ``verify`` prints
    what it prints unpatched, and this thread holds no context afterwards.
    """
    argv = ["verify", "--suite", "all", "--pmin", "7", "--pmax", "199"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr()

    def refuse(*args):
        raise AssertionError(f"a check read a thread-held context: {args}")

    monkeypatch.setattr(congruences, "_local", threading.local())
    monkeypatch.setattr(congruences, "prime_context", refuse)
    monkeypatch.setattr(binomial_sums, "prime_context", refuse)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == expected
    assert not hasattr(congruences._local, "held")


def test_verify_corollary_forms_no_product_sums(monkeypatch, capsys):
    """The corollaries read only the binomials: rows H({1}^j) and the central loop, no partition."""
    built, passes, _ = _passes_of_a_sweep(monkeypatch, capsys, "corollary", 2 * 43)
    assert passes == [("harmonic", chunk, 0, 0, True) for chunk in built]


def test_verify_congruences_runs_no_central_loop(monkeypatch, capsys):
    """No congruence claim reads the binomials, so no harmonic walk forms them."""
    built, passes, contexts = _passes_of_a_sweep(monkeypatch, capsys, "congruences", 28 * 43)
    everything = (len(BASE_CLAIMS), len(congruences.PARTITIONS), False)
    assert passes == [("harmonic", chunk, *everything) for chunk in built]
    assert all(context.binomial_values == {} for context in contexts)


def test_each_claim_names_the_harmonic_group_it_reads(monkeypatch):
    """A claim's ``groups`` are what its sides read, and no more.

    ``groups`` is a tuple of the groups of PrimeContext: "mhs", "sum" and
    "binomials" of the harmonic pass, "powers" of the power pass.
    ``check_chunk`` fills a context with these before the first check, so a
    claim that named too little would start a pass of its own, and one that
    named too much a pass that no claim reads.  Each claim's sides are read
    alone, without ``check_chunk``, from a fresh context: its reads ask
    ``fill`` for exactly what it names.
    """
    p, asked = 101, []

    def recording(self, groups, real=congruences.PrimeContext.fill):
        asked.append(set(groups))
        return real(self, groups)

    monkeypatch.setattr(congruences.PrimeContext, "fill", recording)
    claims = BASE_CLAIMS + SUM_CLAIMS + theorem_claims() + CAI_GRANVILLE_CLAIMS + COROLLARY_CLAIMS
    for claim in claims:
        # a bare string would declare its letters: "sum" the groups s, u and m
        assert type(claim.groups) is tuple, claim.claim_id
        asked.clear()
        lhs, rhs = claim.sides(congruences.PrimeContext((p,)), p)
        assert lhs == rhs, claim.claim_id
        assert set().union(*asked) == set(claim.groups), claim.claim_id


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "all"],
        *(["--suite", name] for name in ("identities", "congruences", "theorem", "corollary")),
        ["--suite", "staver"],
        ["--claim", "binomial-power-sum:a=2"],
        ["--suite", "theorem", "--amin", "-9", "--amax", "-7"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_no_check_starts_a_pass_once_the_runner_has_filled_the_context(monkeypatch, capsys, argv):
    """The declarations are complete: after the first fill of a chunk's context, a pass raises.

    ``check_chunk`` fills the chunk's context once before its checks, so
    the first fill of a chunk's context is the runner's, and any later pass
    would be one that a check started.
    """

    def refuse(*args):
        raise AssertionError(f"a check started a pass: {args}")

    class Sealed(congruences.PrimeContext):
        def fill(self, groups):
            super().fill(groups)
            self._sum_harmonic = self._sum_powers = refuse  # for every later call

    monkeypatch.setattr(congruences, "PrimeContext", Sealed)
    assert cli.main(["verify", *argv, "--pmin", "7", "--pmax", "199"]) == 0
    tail = capsys.readouterr().out.splitlines()[-1]
    passed, total = tail.removesuffix(" checks passed").split("/")
    assert passed == total and int(total) > 0, tail


@pytest.mark.parametrize("chunk", [(101,), (9973, 10007, 10009)], ids=["101", "9973-10009"])
def test_the_theorem_routes_share_no_table(monkeypatch, chunk):
    """Wrong inverses in one pass fail the route that reads that pass, and only that route.

    With every inverse that the harmonic pass builds perturbed, every
    expansion claim fails and every direct claim passes.  With those of the
    power pass perturbed (1/k), every direct claim fails, while the expansion route's value
    still equals the closed form (its claims fail too, as their right side
    is the direct sum).  a = 0 reads neither: the power pass counts p
    units, and C(0, r) = 0 for r >= 1 leaves the expansion at p.
    """
    def perturbing(name, real_inverse=congruences.batch_inverse):
        real = getattr(congruences.PrimeContext, name)

        def walk(self, *args):  # every inversion while this pass runs, and no other
            with monkeypatch.context() as patched:
                patched.setattr(
                    congruences, "batch_inverse", lambda *a: [x + 1 for x in real_inverse(*a)]
                )
                return real(self, *args)

        return walk

    claims = theorem_claims()
    for name in ("_sum_harmonic", "_sum_powers"):
        with monkeypatch.context() as patched:
            patched.setattr(congruences.PrimeContext, name, perturbing(name))
            results = congruences.check_chunk(claims, chunk)
        by_id = {(r.claim_id, r.p): r for r in results}
        for p in chunk:
            for a in range(-6, 7):
                direct = by_id[f"binomial-power-sum:a={a}", p]
                expansion = by_id[f"binomial-power-sum-expansion:a={a}", p]
                if a == 0:
                    assert direct.passed and expansion.passed, (name, p)
                elif name == "_sum_harmonic":
                    assert direct.passed and not expansion.passed, (name, p, a)
                else:
                    assert not direct.passed, (name, p, a)
                    assert expansion.lhs == direct.rhs, (name, p, a)  # expansion = closed form


def test_a_theorem_range_without_1_to_3_runs_one_power_pass_per_chunk(monkeypatch):
    """The single-binomial claims read a = 1, 2, 3 from the pass of the theorem's range."""
    runs = []
    real = congruences.PrimeContext._sum_powers

    def counting(self):
        runs.append(self.primes)
        return real(self)

    monkeypatch.setattr(congruences.PrimeContext, "_sum_powers", counting)
    argv = ["verify", "--suite", "theorem", "--amin", "-9", "--amax", "-7"]
    assert cli.main([*argv, "--pmin", "7", "--pmax", "199"]) == 0
    chunks = congruences.prime_chunks(primes_in_range(7, 199))
    assert len(chunks) > 1
    assert runs == chunks
