"""The codecs' encoders and decoders against the reference codecs of
``codec_families``: every encode and decode route on the mixed, extreme
and far pairs of every family, the length model, truncated streams, the
ck top code of every order up to 64, arbitrary bytes, and the
closed-form cminus rows against the reference allocation.
"""

import random

import pytest
from codec_families import (FAMILIES, FAR_PAIRS, RefCminus, RefLimit, assert_codes,
                            assert_lengths, bit_string, canonical_codewords, codeword,
                            every_pair, extreme_pairs, long_runs, power_of_two_pairs,
                            random_pairs, reference, reference_stream, top_codeword)

from geompair.basecodes import SMALL_BITS, PairCodec
from geompair.bitio import BitReader, BitWriter, Codeword, StreamExhausted
from geompair.ck_codec import CkCodec
from geompair.cminus_codec import LimitCodec, signature_row
from geompair.families import CodeFamily, make_codec


def test_canonical_codewords():
    cws = canonical_codewords([1, 2, 3, 3])
    assert [bit_string(c.value, c.length) for c in cws] == ["0", "10", "110", "111"]
    with pytest.raises(ValueError):
        canonical_codewords([2, 1])
    with pytest.raises(ValueError):
        canonical_codewords([1, 1, 1])


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
@pytest.mark.parametrize("kind", ["random", "extreme"])
def test_encoders_match_reference(family, kind):
    assert type(make_codec(family)).decode is PairCodec.decode
    if kind == "random":
        assert_codes(family, random_pairs(family))
        assert_codes(family, every_pair(range(32)))  # each pair of the encode table
    else:
        assert_codes(family, extreme_pairs(family))


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


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
def test_emitted_length_equals_modelled_length(family):
    pairs = random_pairs(family) + extreme_pairs(family) + FAR_PAIRS + power_of_two_pairs()
    assert_lengths(family, pairs + every_pair(range(64)))


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
def test_encode_many_override_matches_reference(family):
    # 1000 pairs cross the writer's flush threshold several times
    for pairs in (FAR_PAIRS, random_pairs(family, n=1000), FAR_PAIRS + random_pairs(family)):
        assert_codes(family, pairs)


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
@pytest.mark.parametrize("bad", [(-1, 0), (0, -1), (-5, -5)])
def test_encode_many_rejects_negative_components(family, bad):
    codec = make_codec(family)
    with pytest.raises(ValueError):
        codec.encode_many([(1, 1), bad])


def test_encode_many_rejects_unfit_values():
    # the encode table's check refuses an unfit small pair, and the shared
    # encode_many loop and the token route's miss check refuse the others
    for small_fit in (False, True):
        class Broken(PairCodec):
            def _coder(self, i, j):
                return (0, 1) if small_fit and not (i | j) >> SMALL_BITS else (4, 2)

        if small_fit:
            assert Broken().encode_many([(0, 0)]) == (b"\x00", 1)
        for pairs in ([(0, 0), (99, 0)], iter([(0, 0), (99, 0)])):
            with pytest.raises(ValueError, match="does not fit"):
                Broken().encode_many(pairs)
        with pytest.raises(ValueError, match="does not fit"):
            Broken().encode_tokens(["0", "0", "99", "0"])
        with pytest.raises(ValueError):
            Broken().encode_to(BitWriter(), (99, 0))


@pytest.mark.parametrize("k", list(range(1, 65)) + [256])
def test_top_code_matches_reference_table(k):
    ref = reference(CodeFamily("ck", k)).table
    codec = CkCodec(k)
    assert {sym: Codeword(*top_codeword(codec, *sym)) for sym in ref} == ref
    # every top codeword, read back by the ck codec's loop from RefCk's stream
    pairs = [(a + k * (a % 3), b + k * (b % 2)) for a, b in ref]
    _, data, nbits = reference_stream(CodeFamily("ck", k), pairs)
    reader = BitReader(data)
    assert [codec.decode(reader) for _ in pairs] == pairs
    assert reader.bits_consumed == nbits


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


@pytest.mark.parametrize("density", [0.5, 0.9, 0.99])
def test_limit_decode_matches_signature_walk_on_arbitrary_bytes(density):
    # every bit string parses as limit codewords, so any bytes are a stream
    data = _arbitrary_bytes(density, density)
    assert _decode_all(LimitCodec().decode, data) == _decode_all(RefLimit().decode, data)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 11])
@pytest.mark.parametrize("density", [0.5, 0.9, 0.99, "long-runs"])
def test_cminus_decode_matches_signature_walk_on_arbitrary_bytes(k, density):
    # the code is complete, so every bit string parses up to its last codeword;
    # runs of ones of up to 4000 bits reach signatures past the codec's memo
    seed = f"cminus-{k}-{density}"
    if density == "long-runs":
        data = long_runs(seed, 40, 0, 4000, 64)
    else:
        data = _arbitrary_bytes(seed, density)
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
            assert ref.row(s)[3] == deficit
            assert codeword(codec, (0, s)) == (first_short, lam)
        if n_long:
            assert ref.row(s)[4] == (2 << lam) - first_long
            assert codeword(codec, (n_short, s - n_short)) == (first_long, lam + 1)
