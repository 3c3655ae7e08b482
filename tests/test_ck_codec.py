import bisect
import random
from collections import Counter
from fractions import Fraction

import pytest
from codec_families import assert_codes, top_codeword
from reference_theory import avg_len_ck_design

from geompair.analysis import golomb_pair_avg_len
from geompair.basecodes import TABLE_BITS, golomb_length
from geompair.bitio import BitReader
from geompair.ck_codec import CkCodec
from geompair.families import CodeFamily
from geompair.fringe2 import top_code_params


@pytest.mark.parametrize(
    "k,pair,bits",
    [
        (1, (2, 1), "11010"),
        (3, (0, 0), "00000"),
        (3, (4, 1), "100100"),
    ],
)
def test_encode_examples(k, pair, bits):
    assert CkCodec(k).encode(pair).bits() == bits


def test_top_code_parameter_cache_is_bounded():
    # k comes from container headers: building a codec for each of many
    # orders must not keep every order's parameters
    for k in range(1, 501):
        CkCodec(k)
    info = top_code_params.cache_info()
    assert 64 <= info.maxsize < 500  # still holds the 64 orders select and sweep scan
    assert info.currsize == info.maxsize


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 9, 16, 32])
def test_roundtrip_random_pairs(k):
    rng = random.Random(k)
    assert_codes(CodeFamily("ck", k), [(rng.randint(0, 10_000), rng.randint(0, 10_000))
                                       for _ in range(400)])


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_kraft_completeness_truncated(k):
    codec = CkCodec(k)
    bound = 64 * k
    lengths = [codec.length_of((i, j)) for i in range(bound) for j in range(bound)]
    top = max(lengths)
    # the exact sum, in units of 2^-top
    total = Fraction(sum(1 << (top - length) for length in lengths), 1 << top)
    assert 0 < 1 - total < 2 * Fraction(1, 2) ** (bound // k)


def test_length_of_matches_encode():
    codec = CkCodec(5)
    for pair in [(0, 0), (4, 4), (23, 7), (100, 0)]:
        assert codec.length_of(pair) == codec.encode(pair).length
    codec = CkCodec(3)
    for pair in [(-1, 0), (0, -4), (-3, -3)]:
        for method in (codec.length_of, codec.codeword):
            with pytest.raises(ValueError, match="pair components must be >= 0"):
                method(pair)


def test_k2_equivalent_to_golomb_pair():
    # same codeword-length multiset as order-2 Golomb on each component,
    # checked over a block of pairs covering all residues
    codec = CkCodec(2)
    mine = Counter(codec.length_of((i, j)) for i in range(40) for j in range(40))
    golomb = Counter(
        golomb_length(2, i) + golomb_length(2, j)
        for i in range(40)
        for j in range(40)
    )
    assert mine == golomb


@pytest.mark.parametrize("k", range(3, 11))
def test_beats_symbol_by_symbol_golomb_at_design_point(k):
    q = 2 ** (-1 / k)
    assert golomb_pair_avg_len(q, k) - avg_len_ck_design(k) > 1e-4


# every order whose top code decodes through the top table, and the first
# order past it, which decodes from the level limits
TOP_TABLE_ORDERS = [k for k in range(1, 64) if CkCodec(k)._window_bits <= TABLE_BITS]
BOUND_ORDERS = TOP_TABLE_ORDERS + [TOP_TABLE_ORDERS[-1] + 1]


def test_top_table_orders_are_a_prefix():
    # the window width does not fall as k grows, so the orders are 1 to 37
    widths = [CkCodec(k)._window_bits for k in range(1, 64)]
    assert widths == sorted(widths)
    assert TOP_TABLE_ORDERS == list(range(1, len(TOP_TABLE_ORDERS) + 1))
    assert CkCodec(BOUND_ORDERS[-1])._window_bits == TABLE_BITS + 1


@pytest.mark.parametrize("k", BOUND_ORDERS)
def test_decode_on_both_sides_of_the_top_table_bound(k):
    codec = CkCodec(k)
    rng = random.Random(f"bound-{k}")
    # every residue pair, with short and long quotients
    pairs = [(a + k * rng.choice((0, 1, 5, 90)), b + k * rng.choice((0, 2, 70)))
             for a in range(k) for b in range(k)]
    codec.encode_many(pairs)
    assert "_top_table" not in vars(codec)  # built by the first decode, not before
    data, nbits = codec.encode_many(pairs)
    reader = BitReader(data)
    assert list(map(int, codec.decode_text(reader, len(pairs)).split())) == [
        x for pair in pairs for x in pair]
    assert reader.bits_consumed == nbits
    width, table = codec._window_bits, vars(codec).get("_top_table", "unbuilt")
    if width > TABLE_BITS:
        assert table is None
    else:
        # each TABLE_BITS-bit window holds the whole pair it starts with, or else
        # the top codeword it starts with, as the loop without a top table reads
        # them from the window and zeros after it
        assert len(table) == 1 << TABLE_BITS and width <= TABLE_BITS
        plain = CkCodec(k)
        vars(plain)["_top_table"] = None
        for window, (a, b, length) in table.items():
            assert len(window) == TABLE_BITS
            reader = BitReader(int(window + "0" * 13, 2).to_bytes(3, "big"))
            pair = plain._decode_run(reader, 1)
            if length > 0:
                assert (pair, reader.bits_consumed) == ([a, b], length), window
            else:
                assert reader.bits_consumed > TABLE_BITS, window
                assert (pair[0] % k, pair[1] % k) == (a, b), window
                assert top_codeword(codec, a, b) == (int(window, 2) >> (TABLE_BITS + length),
                                                     -length)
        if k == 1:  # the void top code opens every window that holds no whole pair
            assert {slot for slot in table.values() if slot[2] <= 0} == {(0, 0, 0)}
    assert_codes(CodeFamily("ck", k), pairs[:300])


def reference_starts(k):
    """The first rank of each signature t = a + b of the residue pairs, t = 0..2k-2."""
    starts, rank = [], 0
    for t in range(2 * k - 1):
        starts.append(rank)
        rank += min(t, k - 1) - max(0, t - k + 1) + 1
    return starts


def assert_pairs_decode(k, pairs):
    """The loop without a top table, which finds the signature of a rank in
    closed form, reads ``pairs`` back from their codewords."""
    codec = CkCodec(k)
    vars(codec)["_top_table"] = None  # the level path for every k
    data, nbits = codec.encode_many(pairs)
    reader = BitReader(data)
    assert codec._decode_run(reader, len(pairs)) == [x for pair in pairs for x in pair]
    assert reader.bits_consumed == nbits


@pytest.mark.parametrize("k", range(1, 65))
def test_signature_of_every_rank_in_closed_form(k):
    # the residue pair of each rank, from bisecting the signature starts
    starts = reference_starts(k)
    pairs = []
    for rank in range(k * k):
        t = bisect.bisect_right(starts, rank) - 1
        a = max(0, t - k + 1) + rank - starts[t]
        pairs.append((a, t - a))
    assert_pairs_decode(k, pairs)


@pytest.mark.parametrize("k", [65, 255, 256, 693, 1000, 65535])
def test_signature_of_the_boundary_ranks_in_closed_form(k):
    # the rank before the first of each signature t >= 1, the last pair of
    # t - 1, and that first rank, the pair of t with the lowest a
    pairs = []
    for t in range(1, 2 * k - 1):
        high, low = min(t - 1, k - 1), max(0, t - k + 1)
        pairs += [(high, t - 1 - high), (low, t - low)]
    assert_pairs_decode(k, pairs)


@pytest.mark.parametrize("k", range(1, 39))
def test_top_strings_are_the_top_codewords(k):
    codec = CkCodec(k)
    strings = codec._top_strings
    if codec._window_bits > TABLE_BITS:
        assert k == 38 and strings is None
        return
    assert len(strings) == k * k <= 1 << TABLE_BITS
    for a in range(k):
        for b in range(k):
            value, length = top_codeword(codec, a, b)
            assert strings[a * k + b] == (format(value, f"0{length}b") if length else ""), (a, b)
