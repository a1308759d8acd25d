"""The block-streamed, chunked prime context against the whole-row one it replaced.

Every value a per-prime claim reads is compared with the whole-row oracle
(tests/whole_row.py), which works at one prime: H_{p-1}(s) of the base
claims, every product sum of weight <= 5, the moments of the units from
the power pass and from the product sums, the power sums for
-6 <= a <= 6, F_1 and F_2 (which the stream sums from the
rows H_{p-1}({1}^j) and the oracle multiplies as step products over
m <= p - 1) and the central-binomial sum.  A context holds an ascending chunk of primes and
forms each sum for all of them in one pass modulo the product of their
p^6; each prime is compared in chunks of one, two and three primes and in
the chunks a sweep cuts (``prime_chunks``).  At the default block length
every prime below 2000 and p = 10007 is one block, and p = 100003 is
seven.  With the block length patched small, small primes run
multi-block passes, a short last block, block ends that fall between the
points where a chunk reads its primes, and a half range of units that
ends inside a block.
"""

from math import comb, prod

import pytest

from mhs import congruences
from mhs.binomial_sums import (
    cai_granville_holds,
    generalized_binomial,
    moment_sum,
    signed_binomial_power,
)
from mhs.congruences import BASE_CLAIMS, PARTITIONS, PrimeContext, prime_chunks
from mhs.residues import primes_in_range
from whole_row import WholeRowContext

EXPONENTS = range(-6, 7)
HARMONIC = ("mhs", "sum", "binomials")  # every group of the harmonic pass, as `all` reads them


def _power_sum(context: PrimeContext, a: int, p: int) -> int:
    """sum_k u_k^a modulo p^6 as a claim reads it: a's row C(a, r), r < 6, times p's moments."""
    row = [generalized_binomial(a, r) for r in range(6)]
    return moment_sum(row, context.unit_moments(p), p**6)


def _streamed_values(context: PrimeContext, p: int) -> dict:
    """Every value the per-prime claims read at p from a context holding p."""
    values = {("mhs", claim.target): context.mhs(claim.target, p) for claim in BASE_CLAIMS}
    values.update((("sum", lam), context.product_sum(lam, p)) for lam in PARTITIONS)
    values.update((("power", a), _power_sum(context, a, p)) for a in EXPONENTS)
    values["moments"] = context.moments[p]
    values["binomials"] = context.binomials(p)
    values["expansion"] = context.expansion_moments(p)
    return values


def _whole_values(p: int) -> dict:
    """The same values from the whole-row oracle of p modulo p^6."""
    whole = WholeRowContext(p, p**6)
    values = {("mhs", claim.target): whole.mhs(claim.target) for claim in BASE_CLAIMS}
    values.update((("sum", lam), whole.product_sum(lam)) for lam in PARTITIONS)
    values.update((("power", a), whole.power_sum(a)) for a in EXPONENTS)
    values["moments"] = values["expansion"] = whole.moments(6)
    values["binomials"] = whole.binomials
    return values


def _chunkings(primes: list) -> list:
    """The primes in chunks of one, two and three, and as a sweep cuts them."""
    sized = [[tuple(primes[i : i + n]) for i in range(0, len(primes), n)] for n in (1, 2, 3)]
    return [*sized, prime_chunks(primes)]


def _assert_chunks_match(chunks, oracle: dict) -> None:
    """Each chunk's context, filled as the claims fill it, against the oracle at each prime."""
    for chunk in chunks:
        context = PrimeContext(tuple(chunk))
        context.fill(HARMONIC + ("powers",))  # as the runner fills it for `all`
        for p in chunk:
            streamed, whole = _streamed_values(context, p), oracle[p]
            assert streamed.keys() == whole.keys()
            for key, value in whole.items():
                assert streamed[key] == value, (chunk, p, key)


def test_stream_matches_whole_rows_at_every_prime_to_2000():
    primes = primes_in_range(7, 2000)
    oracle = {p: _whole_values(p) for p in primes}
    chunkings = _chunkings(primes)
    assert max(map(len, chunkings[-1])) > 3  # the sweep's chunks are longer still
    for chunks in chunkings:
        _assert_chunks_match(chunks, oracle)


@pytest.mark.parametrize(
    "primes", [[10007], [9973, 10007, 10009], [100003]], ids=["10007", "9973-10009", "100003"]
)
def test_stream_matches_whole_rows_at_large_primes(primes):
    _assert_chunks_match([primes], {p: _whole_values(p) for p in primes})


@pytest.mark.parametrize("block", [1, 2, 3, 10])
def test_stream_matches_whole_rows_in_short_blocks(monkeypatch, block):
    monkeypatch.setattr(congruences, "_BLOCK", block)
    primes = primes_in_range(7, 60 if block == 1 else 150)
    oracle = {p: _whole_values(p) for p in primes}
    for chunks in _chunkings(primes):
        _assert_chunks_match(chunks, oracle)


@pytest.mark.parametrize("block", [4, 1 << 14])
def test_stream_matches_whole_rows_off_the_claims(monkeypatch, block):
    """Compositions and partitions no claim reads, and exponents outside -6..6.

    The chunk spans more than a factor of 2, so its harmonic read-off
    points fall inside the range of the power pass.
    """
    monkeypatch.setattr(congruences, "_BLOCK", block)
    shapes = [(2, 1), (3, 1, 2), (1, 4, 1), (5,), (2, 2, 2, 2)]
    heavy = [(7, 2, 1), (6,), (3, 3, 1), (12, 1, 1)]
    chunk = (7, 11, 37, 101)
    for streamed in [PrimeContext(chunk)] + [PrimeContext((p,)) for p in chunk]:
        streamed.fill(["powers"])
        for p in streamed.primes:
            whole = WholeRowContext(p, p**6)
            for s in shapes:
                assert streamed.mhs(s, p) == whole.mhs(s), (p, s)
            for lam in heavy:
                assert streamed.product_sum(lam, p) == whole.product_sum(lam), (p, lam)
            for a in (9, 8, -11, -7):
                assert _power_sum(streamed, a, p) == whole.power_sum(a), (p, a)


@pytest.mark.parametrize("block", [2, 5, 1 << 14])
def test_each_block_works_modulo_the_primes_not_yet_read(monkeypatch, block):
    """M is prod p^6 over the primes read at or after the block's last k, P their CRT lift."""
    monkeypatch.setattr(congruences, "_BLOCK", block)
    chunk = (7, 11, 13, 29, 31)
    context = PrimeContext(chunk)
    for reads in ({p - 1: p for p in chunk}, {(p - 1) // 2: p for p in chunk}):
        covered = []
        for start, inverses, mod, lift, read in context._blocks(reads):
            last = start + len(inverses) - 1
            assert read == reads.get(last), (start, reads)
            assert read is not None or len(inverses) == block  # it ends at a read or when full
            unread = [p for k, p in reads.items() if k >= last]
            assert mod == prod(p**6 for p in unread), (start, reads)
            assert 0 <= lift < mod and all(lift % p**6 == p for p in unread), (start, reads)
            assert inverses == [pow(k, -1, mod) for k in range(start, last + 1)]
            covered += range(start, last + 1)
        assert covered == list(range(1, max(reads) + 1))
        read = [p for *_, p in context._blocks(reads) if p is not None]
        assert read == list(chunk)  # each prime once, where a block ends


# The two passes of --suite all: the binomials come from the harmonic one, as
# the base claims and the product sums do.
PASSES = {
    "harmonic": lambda context: context.fill(HARMONIC),
    "power": lambda context: context.fill(["powers"]),
}


@pytest.mark.parametrize(
    "chunk",
    [(101,), (10007,), (16411,), (9973, 10007, 10009)],
    ids=["101", "10007", "16411", "9973-10009"],
)
def test_the_first_block_is_inverted_once_whatever_pass_runs_first(monkeypatch, chunk):
    """Each pass inverts the first block it walks, once, and shares it with no other pass.

    Whichever pass runs first, k is walked twice: once by the harmonic pass
    over k < p_1, and once by the power pass over k <= (p_1 - 1)/2.  At
    p = 16411 the harmonic pass is two blocks.
    """
    firsts, walks = [], []

    def recording(values, mod, real=congruences.batch_inverse):
        values = list(values)
        if values == list(range(1, len(values) + 1)):  # 1/k over a block from k = 1
            firsts.append((len(values), mod))
        return real(values, mod)

    def counting(name, real):
        def walk(self, *args):
            walks.append(name)
            return real(self, *args)

        return walk

    monkeypatch.setattr(congruences, "batch_inverse", recording)
    for name in ("_sum_harmonic", "_sum_powers"):
        monkeypatch.setattr(PrimeContext, name, counting(name, getattr(PrimeContext, name)))
    oracle = {p: _whole_values(p) for p in chunk}
    order = list(PASSES)
    for i in range(len(order)):
        firsts.clear()
        walks.clear()
        context = PrimeContext(chunk)
        for name in order[i:] + order[:i]:
            PASSES[name](context)
        for p in chunk:
            assert _streamed_values(context, p) == oracle[p], (order[i], p)
        lengths = {"_sum_harmonic": chunk[0] - 1, "_sum_powers": (chunk[0] - 1) // 2}
        mod = prod(p**6 for p in chunk)
        expected = [(min(congruences._BLOCK, lengths[name]), mod) for name in walks]
        assert firsts == expected, order[i]
        assert sorted(walks) == ["_sum_harmonic", "_sum_powers"], order[i]


def test_a_first_block_shorter_than_the_block_asked_for_is_built_again(monkeypatch):
    """A context held over a change of _BLOCK does not pass a short first block off as whole.

    No pass reads a block that another inverted, so the harmonic pass run
    after a power pass of blocks of 4 inverts its own first block, whole,
    once for all three of its groups.
    """
    p, firsts = 101, []

    def recording(values, mod, real=congruences.batch_inverse):
        values = list(values)
        if values[:1] == [1]:  # 1/k over a block from k = 1
            firsts.append(len(values))
        return real(values, mod)

    monkeypatch.setattr(congruences, "batch_inverse", recording)
    context = PrimeContext((p,))
    with monkeypatch.context() as patched:
        patched.setattr(congruences, "_BLOCK", 4)
        context.fill(["powers"])
    assert firsts == [4]
    context.fill(HARMONIC)
    assert _streamed_values(context, p) == _whole_values(p)
    assert firsts == [4, p - 1]


@pytest.mark.parametrize("e, primes", [(6, primes_in_range(7, 400))], ids=["6"])
def test_the_binomials_alone_match_the_step_products(e, primes):
    """F_1 and F_2 from a pass that forms no product sum, against prod (1 + cp/m) mod p^6.

    Its rows H({1}^j) stop at j = 4: the term j = 5 of F_c vanishes mod p^6,
    but the term j = 4 in general does not.
    """
    for chunk in [(p,) for p in primes] + prime_chunks(primes):
        context = PrimeContext(chunk)
        for p in chunk:
            whole = WholeRowContext(p, p**e)
            steps = whole.steps_product(1, p - 1), whole.steps_product(2, p - 1)
            assert context.binomials(p)[:2] == steps, (chunk, p)
        assert context.product_sums == {p: {(): p - 1} for p in chunk}  # no partition formed


@pytest.mark.parametrize("chunk", [(11, 7), (7, 7), (7, 11, 11, 13)])
def test_a_chunk_must_ascend(chunk):
    with pytest.raises(ValueError, match="must ascend"):
        PrimeContext(chunk)


def test_prime_chunks_keep_order_and_budget():
    primes = primes_in_range(7, 2000)
    chunks = prime_chunks(primes)
    assert [p for chunk in chunks for p in chunk] == primes
    for chunk in chunks:
        assert prod(p**6 for p in chunk).bit_length() <= congruences._CHUNK_BITS
    for before, after in zip(chunks, chunks[1:]):  # each chunk is as long as the budget allows
        assert prod(p**6 for p in before + after[:1]).bit_length() > congruences._CHUNK_BITS
    assert prime_chunks([11, 7, 7, 13]) == [(11,), (7,), (7, 13)]  # ascending runs only
    assert prime_chunks([]) == []


def test_signed_binomial_power_matches_comb():
    for p in (7, 11, 101):
        for e in (1, 4, 6):
            mod = p**e
            for k in range(p):
                base = (-1) ** k * comb(p - 1, k)
                assert signed_binomial_power(k, 1, p, e).value == base % mod, (p, e, k)
                assert signed_binomial_power(k, 3, p, e).value == pow(base, 3, mod), (p, e, k)
                assert signed_binomial_power(k, -2, p, e).value == pow(base, -2, mod), (p, e, k)


def test_cai_granville_holds_beyond_the_claims():
    """a >= 4 has no claim; the exact check compares with math.comb."""
    for p in (7, 11, 101):
        for a in range(1, 7):
            assert cai_granville_holds(a, p), (p, a)
