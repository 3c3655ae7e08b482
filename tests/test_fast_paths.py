"""The (value, length) encoders and closed-form decoders against the
original ones.

The ``ref_*`` encoders below are the package's original encoders, which
built every codeword by concatenating ``Codeword`` objects, looked the ck
top code up in a k^2 table and allocated cminus codewords signature by
signature.  They are kept here as the reference: every codec's
``encode``, ``encode_to`` and ``encode_many`` must emit exactly their
bytes.  The original limit and cminus decoders, which walk every
signature from 0, are the reference for the closed-form ones.
"""

import random

import pytest

from geompair.basecodes import (
    PairCodec,
    QuasiUniformSpec,
    canonical_codewords,
    golomb_length,
    quasi_uniform_decode,
)
from geompair.bitio import BitReader, BitWriter, Codeword, StreamExhausted
from geompair.cminus_codec import limit_row, signature_length_row, signature_row
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
    """The original cminus codec: a per-signature allocation table grown
    signature by signature, and a decoder that walks it from signature 0."""

    def __init__(self, k):
        self.k = k
        # per signature: (lam, n_short, n_long, first_short, first_long)
        self.rows = []
        self.next_value = 0
        self.next_length = 0

    def row(self, s):
        while len(self.rows) <= s:
            cur = len(self.rows)
            row = signature_length_row(self.k, cur)
            firsts = []
            for length, count in ((row.lam, row.n_short), (row.lam + 1, row.n_long)):
                if count == 0:
                    firsts.append(-1)
                    continue
                if length < self.next_length:
                    raise AssertionError(f"length sequence decreases at signature {cur}")
                self.next_value <<= length - self.next_length
                self.next_length = length
                firsts.append(self.next_value)
                self.next_value += count
            self.rows.append((row.lam, row.n_short, row.n_long, *firsts))
        return self.rows[s]

    def encode(self, pair):
        i, j = pair
        lam, n_short, _, first_short, first_long = self.row(i + j)
        if i < n_short:
            return Codeword(first_short + i, lam)
        return Codeword(first_long + (i - n_short), lam + 1)

    def decode(self, reader):
        rel = 0
        length = 0
        s = 0
        while True:
            lam, n_short, n_long, _, _ = self.row(s)
            need = lam - length
            while need > 0:
                take = need if need < 64 else 64
                rel = (rel << take) | reader.read_bits(take)
                need -= take
            length = lam
            if rel < n_short:
                return rel, s - rel
            rel -= n_short
            if n_long:
                rel = (rel << 1) | reader.read_bit()
                length += 1
                if rel < n_long:
                    i = n_short + rel
                    return i, s - i
                rel -= n_long
            s += 1


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


def modelled_length(family, pair):
    """Codeword length from the family's length model, not from its encoder."""
    i, j = pair
    if family.kind == "ck":
        return make_codec(family).length_of(pair)
    if family.kind == "golomb":
        return golomb_length(family.k, i) + golomb_length(family.k, j)
    row = limit_row(i + j) if family.kind == "limit" else signature_length_row(family.k, i + j)
    return row.lam if i < row.n_short else row.lam + 1


LENGTH_FAMILIES = (
    [CodeFamily("ck", k) for k in (1, 3, 16)]
    + [CodeFamily("cminus", k) for k in (2, 3, 4, 10)]
    + [CodeFamily("limit")]
    + [CodeFamily("golomb", k) for k in (1, 3)]
)


@pytest.mark.parametrize("family", LENGTH_FAMILIES, ids=CodeFamily.label)
def test_emitted_length_equals_modelled_length(family):
    codec = make_codec(family)
    for pair in random_pairs(family) + extreme_pairs(family):
        assert codec.codeword(pair)[1] == modelled_length(family, pair), pair


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


def _arbitrary_bytes(seed, density, n=400):
    """n random bytes whose bits are ones with the given probability."""
    rng = random.Random(seed)
    return bytes(sum((rng.random() < density) << b for b in range(8)) for _ in range(n))


def _long_run_bytes(seed, n=40):
    """n runs of up to 4000 ones, each followed by a zero and 64 random bits."""
    rng = random.Random(seed)
    bits = "".join(
        "1" * rng.randrange(4000) + "0" + format(rng.getrandbits(64), "064b") for _ in range(n)
    )
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


@pytest.mark.parametrize("density", [0.5, 0.9, 0.99])
def test_limit_decode_matches_signature_walk_on_arbitrary_bytes(density):
    # every bit string parses as limit codewords, so any bytes are a stream
    data = _arbitrary_bytes(density, density)
    assert _decode_all(make_codec(CodeFamily("limit")).decode, data) == _decode_all(
        RefLimit().decode, data
    )


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 11])
@pytest.mark.parametrize("density", [0.5, 0.9, 0.99, "long-runs"])
def test_cminus_decode_matches_signature_walk_on_arbitrary_bytes(k, density):
    # the code is complete, so every bit string parses up to its last codeword;
    # runs of ones of up to 4000 bits reach signatures past the codec's memo
    seed = f"cminus-{k}-{density}"
    data = _long_run_bytes(seed) if density == "long-runs" else _arbitrary_bytes(seed, density)
    got = _decode_all(make_codec(CodeFamily("cminus", k)).decode, data)
    assert got == _decode_all(RefCminus(k).decode, data)
    assert len(got) > 10


@pytest.mark.parametrize("k", range(2, 13))
def test_cminus_closed_form_rows_match_allocation_table(k):
    ref = RefCminus(k)
    codec = make_codec(CodeFamily("cminus", k))
    for s in range(3 * 2**k + 50):
        lam, n_short, n_long, deficit = signature_row(k, s)
        assert ref.row(s)[:3] == (lam, n_short, n_long)
        first_short = (1 << lam) - deficit
        first_long = 2 * (first_short + n_short)
        if n_short:
            assert ref.row(s)[3] == first_short
            assert codec.codeword((0, s)) == (first_short, lam)
        if n_long:
            assert ref.row(s)[4] == first_long
            assert codec.codeword((n_short, s - n_short)) == (first_long, lam + 1)
