"""The (value, length) encoders against the Codeword-concatenation ones.

The ``ref_*`` encoders below are the package's original encoders, which
built every codeword by concatenating ``Codeword`` objects and looked
the ck top code up in a k^2 table.  They are kept here as the reference:
every codec's ``encode``, ``encode_to`` and ``encode_many`` must emit
exactly their bytes.
"""

import random

import pytest

from geompair.basecodes import PairCodec, QuasiUniformSpec, canonical_codewords, quasi_uniform_decode
from geompair.bitio import BitReader, BitWriter, Codeword, StreamExhausted
from geompair.cminus_codec import signature_length_row
from geompair.families import CodeFamily, make_codec
from geompair.fringe2 import TopCode, top_code_params, top_code_symbols, top_code_table


def ref_unary(n):
    return Codeword((1 << (n + 1)) - 2, n + 1)


def ref_quasi_uniform(n, rank):
    spec = QuasiUniformSpec.for_size(n)
    if rank < spec.short_count:
        return Codeword(rank, spec.m - 1)
    return Codeword(rank + spec.short_count, spec.m)


def ref_top_table(k):
    prof = top_code_params(k).profile
    lengths = []
    for depth, count in zip((prof.M - 1, prof.M, prof.M + 1), prof.leaves):
        lengths.extend([depth] * count)
    return dict(zip(top_code_symbols(k), canonical_codewords(lengths)))


class RefCk:
    def __init__(self, k):
        self.k = k
        self.table = ref_top_table(k)

    def encode(self, pair):
        i, j = pair
        k = self.k
        return self.table[(i % k, j % k)] + ref_unary(i // k) + ref_unary(j // k)


class RefCminus:
    def __init__(self, k):
        self.k = k
        self.rows = []
        self.next_value = 0
        self.next_length = 0

    def row(self, s):
        while len(self.rows) <= s:
            row = signature_length_row(self.k, len(self.rows))
            firsts = []
            for length, count in ((row.lam, row.n_short), (row.lam + 1, row.n_long)):
                if count == 0:
                    firsts.append(-1)
                    continue
                self.next_value <<= length - self.next_length
                self.next_length = length
                firsts.append(self.next_value)
                self.next_value += count
            self.rows.append((row.lam, row.n_short, *firsts))
        return self.rows[s]

    def encode(self, pair):
        i, j = pair
        lam, n_short, first_short, first_long = self.row(i + j)
        if i < n_short:
            return Codeword(first_short + i, lam)
        return Codeword(first_long + (i - n_short), lam + 1)


class RefLimit:
    def encode(self, pair):
        i, j = pair
        s = i + j
        t = (s + 1).bit_length() - 1
        r = s + 1 - (1 << t)
        run = (t - 1) * (s + 1) + 2 * r + 1
        return Codeword((1 << run) - 1, run) + ref_quasi_uniform(s + 2, i)

    def decode(self, reader):
        """The original decoder: one quasi-uniform block per signature."""
        s = 0
        while True:
            rank = quasi_uniform_decode(s + 2, reader)
            if rank <= s:
                return rank, s - rank
            s += 1


class RefGolomb:
    def __init__(self, k):
        self.k = k

    def golomb(self, i):
        return ref_quasi_uniform(self.k, i % self.k) + ref_unary(i // self.k)

    def encode(self, pair):
        return self.golomb(pair[0]) + self.golomb(pair[1])


def reference(family):
    if family.kind == "ck":
        return RefCk(family.k)
    if family.kind == "cminus":
        return RefCminus(family.k)
    if family.kind == "limit":
        return RefLimit()
    return RefGolomb(family.k)


FAMILIES = (
    [CodeFamily("ck", k) for k in (1, 2, 3, 16, 255, 256)]
    + [CodeFamily("cminus", k) for k in (2, 3, 4, 10)]
    + [CodeFamily("limit")]
    + [CodeFamily("golomb", k) for k in (1, 2, 3, 7)]
)


def random_pairs(family, n=300):
    """Geometric pairs near the family's design point, plus uniform ones."""
    rng = random.Random(f"{family.kind}-{family.k}")
    if family.kind in ("ck", "golomb"):
        q = 2 ** (-1 / family.k)
    elif family.kind == "cminus":
        q = 2.0 ** -family.k
    else:
        q = 0.2

    def geometric():
        n = 0
        while rng.random() < q:
            n += 1
        return n

    pairs = [(geometric(), geometric()) for _ in range(n)]
    spread = 4 * max(family.k, 2)
    pairs += [(rng.randrange(spread), rng.randrange(spread)) for _ in range(n // 3)]
    return pairs


def extreme_pairs(family):
    """Zero, very long unary runs (ck, golomb) and signatures >= 1024."""
    if family.kind in ("ck", "golomb"):
        long = 3000 * family.k
        return [(0, 0), (long, 0), (0, long), (long + 1, long - 1), (0, 0)]
    return [(0, 0), (1024, 0), (0, 1024), (512, 513), (700, 400), (0, 0)]


def reference_stream(family, pairs):
    ref = reference(family)
    codewords = [ref.encode(p) for p in pairs]
    writer = BitWriter()
    for cw in codewords:
        writer.write_codeword(cw)
    return codewords, writer.getvalue(), writer.bits_written


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
@pytest.mark.parametrize("kind", ["random", "extreme"])
def test_encoders_match_reference(family, kind):
    pairs = random_pairs(family) if kind == "random" else extreme_pairs(family)
    codewords, data, nbits = reference_stream(family, pairs)
    codec = make_codec(family)
    assert [codec.encode(p) for p in pairs] == codewords
    assert codec.encode_many(pairs) == (data, nbits)
    writer = BitWriter()
    for p in pairs:
        codec.encode_to(writer, p)
    assert (writer.getvalue(), writer.bits_written) == (data, nbits)
    reader = BitReader(data)
    assert [codec.decode(reader) for _ in pairs] == pairs
    assert reader.bits_consumed == nbits


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
def test_every_truncation_raises(family):
    pairs = random_pairs(family, n=30)
    data, _ = make_codec(family).encode_many(pairs)
    long_pairs = extreme_pairs(family)
    long_data, _ = make_codec(family).encode_many(long_pairs)
    cuts = [(pairs, data[:n]) for n in range(len(data))]
    cuts += [(long_pairs, long_data[:n]) for n in range(0, len(long_data), 97)]
    cuts += [(long_pairs, long_data[: len(long_data) - 1])]
    codec = make_codec(family)
    for stream_pairs, prefix in cuts:
        reader = BitReader(prefix)
        with pytest.raises(StreamExhausted):
            for _ in stream_pairs:
                codec.decode(reader)


def test_encode_many_rejects_unfit_values():
    class Broken(PairCodec):
        def codeword(self, pair):
            return 4, 2

    with pytest.raises(ValueError):
        Broken().encode_many([(0, 0)])


@pytest.mark.parametrize("k", list(range(1, 65)) + [256])
def test_top_code_matches_reference_table(k):
    ref = ref_top_table(k)
    top = TopCode(k)
    assert {sym: Codeword(*top.codeword(*sym)) for sym in ref} == ref
    assert top_code_table(k) == ref
    writer = BitWriter()
    for cw in ref.values():
        writer.write_codeword(cw)
    reader = BitReader(writer.getvalue())
    assert [top.decode(reader) for _ in ref] == list(ref)
    assert reader.bits_consumed == writer.bits_written


def _decode_all(decode, data):
    """Each pair decoded from ``data`` with the position after it, up to
    the codeword that runs off the end."""
    reader = BitReader(data)
    out = []
    try:
        while True:
            out.append((decode(reader), reader.bits_consumed))
    except StreamExhausted:
        return out


@pytest.mark.parametrize("density", [0.5, 0.9, 0.99])
def test_limit_decode_matches_signature_walk_on_arbitrary_bytes(density):
    # every bit string parses as limit codewords, so any bytes are a stream
    rng = random.Random(density)
    data = bytes(
        sum((rng.random() < density) << b for b in range(8)) for _ in range(400)
    )
    assert _decode_all(make_codec(CodeFamily("limit")).decode, data) == _decode_all(
        RefLimit().decode, data
    )
