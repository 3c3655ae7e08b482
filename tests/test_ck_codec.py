import random
from collections import Counter
from fractions import Fraction

import pytest
from codec_families import assert_codes, top_codeword

from geompair.analysis import avg_len_ck_design, golomb_pair_avg_len
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
    assert codec.decode_many(reader, len(pairs)) == [x for pair in pairs for x in pair]
    assert reader.bits_consumed == nbits
    width, table = codec._window_bits, vars(codec).get("_top_table", "unbuilt")
    if k == 1:  # the void top code: one empty window, which opens every pair
        assert table == {"": (0, 0, 0)}
    elif width > TABLE_BITS:
        assert table is None
    else:
        # each window holds the top codeword it starts with, at most 2^TABLE_BITS of them
        assert len(table) == 1 << width <= 1 << TABLE_BITS
        for window, (a, b, length) in table.items():
            assert len(window) == width
            assert top_codeword(codec, a, b) == (int(window, 2) >> (width - length), length)
    assert_codes(CodeFamily("ck", k), pairs[:300])
