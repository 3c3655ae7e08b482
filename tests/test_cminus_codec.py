import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from codec_families import assert_codes, assert_decodes, assert_lengths, bit_string, codeword, every_pair

from geompair.bitio import BitReader, Codeword
from geompair.cminus_codec import (
    CminusCodec,
    LimitCodec,
    _MEMO_SIGNATURES,
    _lowest_signature,
    limit_row,
    signature_length_row,
    signature_row,
)
from geompair.families import CodeFamily


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
        assert row.n_short + row.n_long == s + 1
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
    assert bit_string(*codeword(CminusCodec(k), pair)) == bits


def test_encode_signature1_k2_lengths():
    codec = CminusCodec(2)
    assert codec.encode((0, 1)).length == 3
    assert codec.encode((1, 0)).length == 3


@pytest.mark.parametrize("k", range(2, 7))
def test_roundtrip_random_pairs(k):
    rng = random.Random(10 * k)
    assert_codes(CodeFamily("cminus", k), [(rng.randint(0, 2000), rng.randint(0, 2000))
                                           for _ in range(200)])


def test_lengths_follow_rows():
    assert_lengths(CodeFamily("cminus", 4), every_pair(range(40)))


def test_codeword_of_a_deep_signature_keeps_no_state():
    # the codec once allocated every signature up to s, each row holding
    # two s-bit values: about 100 MB for s = 20000
    codec = CminusCodec(2)
    before = dict(vars(codec))
    tracemalloc.start()
    try:
        value, length = codeword(codec, (0, 20000))
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


@pytest.mark.parametrize("k", [*range(2, 13), math.inf])
def test_lowest_signature_matches_a_scan_of_the_rows(k):
    # the initial regime's Lambda ends at (k - 2) 2^(k-1), so (k + 2) 2^k
    # ones reach well into the periodic regime of a finite order
    u_max = 14 << 12 if k == math.inf else (k + 2) << k
    s = 0
    for u in range(u_max + 1):
        while signature_row(k, s)[0] < u:
            s += 1
        assert _lowest_signature(k, u) == s


@pytest.mark.parametrize("k", [*range(2, 9), 20, math.inf])
def test_run_starts_hold_the_lowest_signature_and_its_row(k):
    # the decoder's first step for a run of u ones, up to the memo's last
    # Lambda: the lowest signature s with Lambda_s >= u, its row, and v,
    # the Lambda_s + 1 bits of u ones, a zero and Lambda_s - u zeros less
    # the first long codeword of s, 2 (2^Lambda_s - D_s + n_short)
    starts = CminusCodec(k)._run_starts
    assert len(starts) == signature_row(k, _MEMO_SIGNATURES - 1)[0] + 1
    for u, (s, lam, n_short, n_long, v) in enumerate(starts):
        assert s == _lowest_signature(k, u)
        row_lam, row_short, row_long, deficit = signature_row(k, s)
        assert (lam, n_short, n_long) == (row_lam, row_short, row_long)
        assert v == (((1 << u) - 1) << (lam - u + 1)) - 2 * ((1 << lam) - deficit + n_short)


@pytest.mark.parametrize("k", [2, 4, 11, 20, math.inf])
def test_decode_of_a_long_run_reencodes_to_its_bits(k):
    # a run of about 2^19 ones reaches signatures far past the codec's memo,
    # in the periodic regime for k <= 11 and in the initial one for k = 20
    # and for the limit code's unbounded order
    data = b"\xff" * 65535 + b"\xfe" + bytes([0x5A]) * 16
    codec = CminusCodec(k)
    reader = BitReader(data)
    pair = codec.decode(reader)
    value, length = codeword(codec, pair)
    assert length == reader.bits_consumed
    assert value == int.from_bytes(data, "big") >> (8 * len(data) - length)


# --- limit code ---


@pytest.mark.parametrize(
    "pair,bits",
    [((0, 0), "0"), ((0, 1), "10"), ((1, 0), "110")],
)
def test_limit_encode_examples(pair, bits):
    assert bit_string(*codeword(LimitCodec(), pair)) == bits


def test_limit_roundtrip():
    rng = random.Random(4)
    assert_codes(CodeFamily("limit"), [(rng.randint(0, 2000), rng.randint(0, 2000))
                                       for _ in range(200)])


def test_limit_decode_every_pair_of_a_signature():
    # every block position, at signatures on both sides of each power of two
    signatures = [*range(300), *(s + d for s in (511, 1023, 4095) for d in (-1, 0, 1))]
    assert_decodes(LimitCodec(), every_pair(signatures))


def test_limit_distribution_small_signatures():
    assert_lengths(CodeFamily("limit"), every_pair(range(65)))


@pytest.mark.parametrize("k", range(2, 13))
def test_limit_agrees_with_cminus_on_initial_regime(k):
    # rows and per-pair codewords coincide for s <= 2^(k-1) - 2.  Codewords
    # are compared at every pair up to s = 510 (all of them for k <= 10) and
    # of the last signature: every pair at k = 12 builds about 6 GB of
    # codeword values and takes about 20 s.
    last = (1 << (k - 1)) - 2
    assert all(signature_row(k, s) == signature_row(math.inf, s) for s in range(last + 1))
    codec, limit = CminusCodec(k), LimitCodec()
    signatures = sorted({*range(min(last, 510) + 1), last})
    pairs = [(i, s - i) for s in signatures for i in range(s + 1)]
    assert all(map(Codeword.__eq__, map(codec.encode, pairs), map(limit.encode, pairs)))


def test_limit_signature_lengths_follow_limit_row():
    # the two large signatures lie in the periodic regime of every finite order
    codec = LimitCodec()
    for s in [*range(5000), 2**70, 2**200 + 12345]:
        _, lam, n_short, n_long = limit_row(s)
        assert codec.signature_lengths(s) == ((lam, n_short), (lam + 1, n_long))


def test_limit_codec_facade():
    assert_codes(CodeFamily("limit"), [(3, 5)])
