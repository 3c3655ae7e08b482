import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from geompair.bitio import BitReader, BitWriter, StreamExhausted
from geompair.cminus_codec import (
    CminusCodec,
    LimitCodec,
    limit_decode,
    limit_encode,
    limit_row,
    signature_length_row,
)


@pytest.mark.parametrize(
    "k,s,lam,n_short,n_long",
    [
        (3, 0, 0, 0, 1),
        (3, 3, 7, 3, 1),
        (2, 2, 4, 3, 0),
        (2, 0, 0, 0, 1),
        (2, 1, 2, 0, 2),
    ],
)
def test_signature_length_rows(k, s, lam, n_short, n_long):
    row = signature_length_row(k, s)
    assert (row.lam, row.n_short, row.n_long) == (lam, n_short, n_long)


def test_row_rejects_bad_args():
    with pytest.raises(ValueError):
        signature_length_row(1, 0)
    with pytest.raises(ValueError):
        signature_length_row(3, -1)


@pytest.mark.parametrize("k", range(2, 9))
def test_counts_and_monotonicity(k):
    prev_longest = 0
    for s in range(513):
        row = signature_length_row(k, s)
        assert row.n_short >= 0 and row.n_long >= 0
        assert row.total_pairs() == s + 1
        lens = [row.lam] * (row.n_short > 0) + [row.lam + 1] * (row.n_long > 0)
        assert min(lens) >= prev_longest
        prev_longest = max(lens)


@pytest.mark.parametrize("k", range(2, 7))
def test_partial_kraft_sums(k):
    kraft = Fraction(0)
    for s in range(129):
        row = signature_length_row(k, s)
        kraft += row.n_short * Fraction(1, 1 << row.lam)
        kraft += row.n_long * Fraction(1, 1 << (row.lam + 1))
        assert kraft < 1
    lam_last = signature_length_row(k, 128).lam
    assert 1 - kraft <= 130 * Fraction(1, 1 << lam_last)


@pytest.mark.parametrize(
    "k,pair,bits",
    [
        (2, (0, 0), "0"),
        (3, (0, 0), "0"),
    ],
)
def test_encode_examples(k, pair, bits):
    assert CminusCodec(k).encode(pair).bits() == bits


def test_encode_signature1_k2_lengths():
    codec = CminusCodec(2)
    assert codec.encode((0, 1)).length == 3
    assert codec.encode((1, 0)).length == 3


@pytest.mark.parametrize("k", range(2, 7))
def test_roundtrip_random_pairs(k):
    codec = CminusCodec(k)
    rng = random.Random(10 * k)
    pairs = [(rng.randint(0, 2000), rng.randint(0, 2000)) for _ in range(200)]
    w = BitWriter()
    for p in pairs:
        codec.encode_to(w, p)
    r = BitReader(w.getvalue())
    assert [codec.decode(r) for _ in pairs] == pairs


def test_decode_truncated_stream():
    codec = CminusCodec(3)
    w = BitWriter()
    codec.encode_to(w, (60, 60))
    r = BitReader(w.getvalue()[:10])
    with pytest.raises(StreamExhausted):
        codec.decode(r)


def test_lengths_follow_rows():
    codec = CminusCodec(4)
    for s in range(40):
        row = signature_length_row(4, s)
        lens = Counter(codec.encode((i, s - i)).length for i in range(s + 1))
        expected = Counter()
        if row.n_short:
            expected[row.lam] = row.n_short
        if row.n_long:
            expected[row.lam + 1] = row.n_long
        assert lens == expected


def test_codeword_of_a_deep_signature_keeps_no_state():
    # the codec once allocated every signature up to s, each row holding
    # two s-bit values: about 100 MB for s = 20000
    codec = CminusCodec(2)
    before = dict(vars(codec))
    tracemalloc.start()
    try:
        value, length = codec.codeword((0, 20000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vars(codec) == before
    assert all(vars(codec)[name] is state for name, state in before.items())
    assert peak < 2**20
    row = signature_length_row(2, 20000)
    assert row.n_short > 0  # rank 0 is short
    assert length == row.lam
    reader = BitReader(value.to_bytes(length // 8, "big"))
    assert codec.decode(reader) == (0, 20000)


@pytest.mark.parametrize("k", [2, 4, 11, 20])
def test_decode_of_a_long_run_reencodes_to_its_bits(k):
    # a run of about 2^19 ones reaches signatures far past the codec's memo,
    # in the periodic regime for k <= 11 and in the initial one for k = 20
    data = b"\xff" * 65535 + b"\xfe" + bytes([0x5A]) * 16
    codec = CminusCodec(k)
    reader = BitReader(data)
    pair = codec.decode(reader)
    value, length = codec.codeword(pair)
    assert length == reader.bits_consumed
    assert value == int.from_bytes(data, "big") >> (8 * len(data) - length)


# --- limit code ---


@pytest.mark.parametrize(
    "pair,bits",
    [((0, 0), "0"), ((0, 1), "10"), ((1, 0), "110")],
)
def test_limit_encode_examples(pair, bits):
    assert limit_encode(pair).bits() == bits


def test_limit_roundtrip():
    rng = random.Random(4)
    pairs = [(rng.randint(0, 2000), rng.randint(0, 2000)) for _ in range(200)]
    w = BitWriter()
    for p in pairs:
        w.write_codeword(limit_encode(p))
    r = BitReader(w.getvalue())
    assert [limit_decode(r) for _ in pairs] == pairs


def test_limit_decode_every_pair_of_a_signature():
    # every block position, at signatures on both sides of each power of two
    sigs = list(range(300)) + [s + d for s in (511, 1023, 4095) for d in (-1, 0, 1)]
    pairs = [(i, s - i) for s in sigs for i in range(s + 1)]
    w = BitWriter()
    for p in pairs:
        w.write_codeword(limit_encode(p))
    r = BitReader(w.getvalue())
    assert [limit_decode(r) for _ in pairs] == pairs
    assert r.bits_consumed == w.bits_written


def test_limit_decode_exhaustion():
    w = BitWriter()
    w.write_codeword(limit_encode((40, 40)))
    r = BitReader(w.getvalue()[:4])
    with pytest.raises(StreamExhausted):
        limit_decode(r)


def test_limit_distribution_small_signatures():
    for s in range(65):
        row = limit_row(s)
        lens = Counter(limit_encode((i, s - i)).length for i in range(s + 1))
        expected = Counter()
        if row.n_short:
            expected[row.lam] = row.n_short
        if row.n_long:
            expected[row.lam + 1] = row.n_long
        assert lens == expected


@pytest.mark.parametrize("k", range(3, 9))
def test_limit_agrees_with_cminus_on_initial_regime(k):
    # per-pair codeword lengths coincide for s <= 2^(k-1) - 2
    codec = CminusCodec(k)
    for s in range((1 << (k - 1)) - 1):
        for i in range(s + 1):
            pair = (i, s - i)
            assert codec.encode(pair).length == limit_encode(pair).length


def test_limit_codec_facade():
    codec = LimitCodec()
    w = BitWriter()
    codec.encode_to(w, (3, 5))
    assert codec.decode(BitReader(w.getvalue())) == (3, 5)
