"""The shared coding tables of ``PairCodec`` against the codecs' own paths.

Every slot of the decode table must hold exactly the pairs that the
family's ``_decode_run`` reads whole from the same TABLE_BITS-bit window,
with their text as ``decode_text`` prints it, and every encode-table
entry must be the codec's codeword of its pair.  Both tables have a fixed size
for any k, so a hostile header's k cannot make them large or slow.
"""

import time
import tracemalloc

import pytest
from codec_families import FAMILIES, codeword

from geompair.basecodes import SMALL_BITS, TABLE_BITS, GolombPairCodec, window_keys
from geompair.bitio import BitReader, StreamExhausted
from geompair.ck_codec import CkCodec
from geompair.cminus_codec import CminusCodec, LimitCodec
from geompair.families import CodeFamily, make_codec


def run_in_window(codec, window):
    """The components, bits and pair count that ``_decode_run`` reads
    whole from the TABLE_BITS-bit ``window``, one pair at a time; the
    bits past the window are zeros and end no counted pair."""
    pad = -TABLE_BITS % 8
    data = (window << pad).to_bytes((TABLE_BITS + pad) // 8, "big")
    reader = BitReader(data)
    components, used = [], 0
    while True:
        try:
            pair = codec._decode_run(reader, 1)
        except StreamExhausted:
            break
        if reader.bits_consumed > TABLE_BITS:
            break
        components += pair
        used = reader.bits_consumed
    return tuple(components), used, len(components) // 2


def test_window_keys_list_the_windows_in_numeric_order():
    assert window_keys(0) == [""]
    for width in range(1, 13):
        keys = window_keys(width)
        assert len(keys) == 1 << width
        for n, key in enumerate(keys):
            assert key == format(n, f"0{width}b")


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
def test_every_decode_slot_matches_the_family_loop(family):
    codec = make_codec(family)
    table = codec._decode_table
    assert len(table) == 1 << TABLE_BITS
    for window, (bits, pairs, text) in table.items():
        components = tuple(map(int, text.split()))
        assert (components, bits, pairs) == run_in_window(codec, int(window, 2)), window
        assert text == "%d %d\n" * pairs % components, window


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
def test_every_encode_entry_is_the_codeword(family):
    codec = make_codec(family)
    side = 1 << SMALL_BITS
    assert codec._encode_table == tuple(
        codeword(codec, (i, j)) for i in range(side) for j in range(side)
    )


@pytest.mark.parametrize(
    "codec_of",
    [lambda: CkCodec(65535), lambda: GolombPairCodec(65535), lambda: CminusCodec(65535),
     LimitCodec],
    ids=["ck65535", "golomb65535", "cminus65535", "limit"],
)
def test_tables_of_the_largest_header_k_are_small_and_quick(codec_of):
    codec = codec_of()  # building the codec itself is not timed here
    start = time.perf_counter()
    codec._decode_table
    codec._encode_table
    elapsed = time.perf_counter() - start
    fresh = codec_of()
    tracemalloc.start()
    try:
        fresh._decode_table
        fresh._encode_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.05
    assert peak < 2 * 2**20
