"""The codecs' decoders against the reference decoders, and the batch
encoder against the per-pair one.

Each codec has one decoder, its family loop ``_decode_run``: ``decode``
is one pair of it, and ``decode_text``, the batch decoder, reads a stream
of short codewords through the shared decode table and hands the rest to
it.  ``_decode_run`` over many pairs, and ``decode`` pair by pair, must
return exactly what a loop of the reference decoders of
``codec_families`` returns (they read the original codes with the
``BitReader`` primitives), leave the reader at the same bit, and run off
the end of a stream at the same pair and start bit; ``decode_text`` must
print exactly the components that ``_decode_run`` returns, and fail where
it fails, through the table (a stream of at most TABLE_BITS bits per
pair) and through the family loop; ``encode_many`` must emit the bytes of
``encode_to``, which writes one codeword at a time.
Small ``BitReader`` windows make codewords and table lookups straddle
window ends, where the family loop reloads its window, and make runs of
ones longer than a window, which it reads with ``read_unary``.
"""

import bisect
import functools
import random

import pytest
from codec_families import (FAMILIES, FAR_PAIRS, assert_codes, codeword, geometric_pairs, long_runs,
                            power_of_two_pairs, reference, table_built)

from geompair.basecodes import TABLE_BITS
from geompair.bitio import BitReader, StreamExhausted
from geompair.cli import HEADER, MAGIC, main
from geompair.families import FAMILY_BYTES, CodeFamily, make_codec


def random_bytes(seed, n):
    """Bytes with runs of ones and of zeros as well as random bits."""
    rng = random.Random(seed)
    return bytes(
        rng.choice((0xFF, 0xFE, 0x7F, 0x00)) if rng.random() < 0.3 else rng.getrandbits(8)
        for _ in range(n)
    )


def ends(data, start):
    """The message of a pair that starts at bit ``start`` and runs off the end of ``data``."""
    return f"the payload holds only {8 * len(data) - start} of its bits"


@functools.lru_cache(maxsize=64)
def reference_trace(family, data):
    """A loop of the reference decoder over all of ``data``: the flat
    components and each pair's end bit, up to the pair that runs off the end."""
    decode = reference(family).decode
    reader = BitReader(data)
    flat, pair_ends = [], []
    try:
        while True:
            flat += decode(reader)
            pair_ends.append(reader.bits_consumed)
    except StreamExhausted:
        return flat, pair_ends


def reference_decode(family, data, count):
    """What ``per_pair`` returns for a loop of ``count`` reference decodes."""
    flat, pair_ends = reference_trace(family, data)
    if count <= len(pair_ends):
        return flat[: 2 * count], pair_ends[count - 1] if count else 0, None
    return flat, None, (len(pair_ends), pair_ends[-1] if pair_ends else 0)


def per_pair(decode, data, count):
    """The components, the end position and the exhaustion point of a loop
    of ``decode`` calls: (flat, bits_consumed, None) or (flat, None,
    (pair, start bit))."""
    reader = BitReader(data)
    flat = []
    for index in range(count):
        start = reader.bits_consumed
        try:
            flat += decode(reader)
        except StreamExhausted as exc:
            if exc.pair is not None:  # a codec's decode: one pair of its family loop
                assert (exc.pair, exc.start, str(exc)) == (0, start, ends(data, start))
            return flat, None, (index, start)
    return flat, reader.bits_consumed, None


def batch(read, data, count):
    """What ``read``, a codec's ``_decode_run`` or ``decode_text``, returns for
    ``count`` pairs, as ``per_pair`` does."""
    reader = BitReader(data)
    try:
        got = read(reader, count)
    except StreamExhausted as exc:
        assert str(exc) == ends(data, exc.start)
        return None, None, (exc.pair, exc.start)
    return got, reader.bits_consumed, None


def assert_same_decode(family, data, count, single=False):
    """``_decode_run``, and with ``single`` a loop of the codec's ``decode``,
    against a loop of the reference decoder; and ``decode_text`` against
    ``_decode_run``: the text of its components, the same end bit and the
    same pair and start bit where the stream runs out."""
    want = reference_decode(family, data, count)
    codec = make_codec(family)
    got = batch(codec._decode_run, data, count)
    if want[2] is None:
        assert got == want
    else:
        assert got[2] == want[2]
    flat, end, exhausted = got
    text = None if flat is None else "%d %d\n" * count % tuple(flat)
    assert batch(codec.decode_text, data, count) == (text, end, exhausted)
    if single:
        assert per_pair(codec.decode, data, count) == want


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
def test_decode_many_matches_decode_on_encoded_streams(family):
    codec = make_codec(family)
    for pairs in (geometric_pairs(family, 500, "stream"), power_of_two_pairs()):
        assert_codes(family, pairs)
        # counts short of the stream, and past its end into the padding
        data, _ = codec.encode_many(pairs)
        for count in (0, 1, len(pairs) // 2, len(pairs), len(pairs) + 1, 8 * len(data)):
            assert_same_decode(family, data, count)


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
def test_decode_many_matches_decode_on_arbitrary_bytes(family):
    for seed in range(6):
        data = random_bytes(f"{family.label()}-{seed}", 200 + 50 * seed)
        assert_same_decode(family, data, 8 * len(data))
        assert_same_decode(family, data, seed * 7)


@pytest.mark.parametrize("window", [*range(9, 17), BitReader.WINDOW_BYTES])
@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
def test_decode_many_matches_decode_across_small_windows(monkeypatch, family, window):
    monkeypatch.setattr(BitReader, "WINDOW_BYTES", window)
    codec = make_codec(family)
    pairs = geometric_pairs(family, 120, window) + power_of_two_pairs()[:5]
    data, _ = codec.encode_many(pairs)
    assert_same_decode(family, data, len(pairs), single=True)
    assert_same_decode(family, data[: len(data) * 2 // 3], len(pairs), single=True)
    arbitrary = random_bytes(f"{family.label()}-w{window}", 120)
    assert_same_decode(family, arbitrary, 8 * len(arbitrary), single=True)
    # runs of ones longer than the window; the cminus reference walks
    # every signature from 0 for each pair, so at the default window its
    # runs stay a few hundred bits long
    if window < 64:
        runs = long_runs(f"{family.label()}-r{window}", 4, 8 * window, 200, 20)
    else:
        shortest = 200 if family.kind == "cminus" else 8 * window
        runs = long_runs(f"{family.label()}-r", 2, shortest, 200, 20)
    for cut in (len(runs), len(runs) * 2 // 3, len(runs) // 3):
        assert_same_decode(family, runs[:cut], 8 * cut, single=True)


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
def test_encode_many_matches_generic_path(family):
    rng = random.Random(family.label())
    assert_codes(family, [])
    assert_codes(family, geometric_pairs(family, 3000, "encode"))  # crosses the flush threshold
    assert_codes(family, FAR_PAIRS[:4])
    assert_codes(family, [(rng.randrange(600), rng.randrange(600)) for _ in range(200)])


@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
def test_a_pair_that_runs_off_the_end_leaves_the_reader_at_its_start(monkeypatch, family):
    # 3000 short random streams, and runs of ones longer than a 9-byte
    # window, which the family loops read with read_unary, cut at thirds
    codec = make_codec(family)
    rng = random.Random(f"reader-{family.label()}")
    streams = [random_bytes(rng.random(), rng.randint(1, 8)) for _ in range(3000)]
    runs = long_runs(f"reader-{family.label()}", 4, 72, 200, 20)
    streams += [runs[:cut] for cut in (len(runs), len(runs) * 2 // 3, len(runs) // 3)]
    monkeypatch.setattr(BitReader, "WINDOW_BYTES", 9)

    def decode_all(reader, count):
        for _ in range(count):
            codec.decode(reader)

    for data in streams:
        for read in (decode_all, codec._decode_run, codec.decode_text):
            reader, start = BitReader(data), None
            try:  # more pairs than the stream holds
                read(reader, 8 * len(data) + 1)
            except StreamExhausted as exc:
                start = exc.start
            assert reader.bits_consumed == start, (read.__name__, data)


# ---------------------------------------------------------------------------
# CLI truncation messages
# ---------------------------------------------------------------------------


def truncation_message(family, payload, cut):
    """The CLI's error for ``payload`` cut to ``cut`` bytes, rebuilt from a
    loop of the reference decoder over the whole payload: the first pair
    that ends past the cut runs off the end, and it starts where the pair
    before it ends."""
    _, pair_ends = reference_trace(family, payload)
    index = bisect.bisect_right(pair_ends, 8 * cut)
    start = pair_ends[index - 1] if index else 0
    return (
        f"geompair: bitstream truncated in pair {index} (0-based), "
        f"which starts at payload bit {start}: {ends(payload[:cut], start)}\n"
    )


@pytest.mark.parametrize(
    "family",
    [CodeFamily("ck", 1), CodeFamily("ck", 3), CodeFamily("ck", 16), CodeFamily("cminus", 2),
     CodeFamily("limit"), CodeFamily("golomb", 3)],
    ids=CodeFamily.label,
)
def test_truncation_at_every_byte_names_the_same_pair_and_bit(tmp_path, capsys, family):
    assert_cut_messages(tmp_path, capsys, family, geometric_pairs(family, 300, "truncate"))


def assert_cut_messages(tmp_path, capsys, family, pairs):
    """``decode`` of the container of ``pairs`` cut at each byte of its
    payload prints nothing and exits 2 with the truncation message, or,
    where the cut holds fewer bits than pairs, with the header's bound."""
    payload, _ = make_codec(family).encode_many(pairs)
    path = tmp_path / "cut.bin"
    header = HEADER.pack(MAGIC, 1, FAMILY_BYTES[family.kind], family.k, len(pairs))
    for cut in range(len(payload)):
        path.write_bytes(header + payload[:cut])
        assert main(["decode", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        if 8 * cut < len(pairs):  # the bound on the pair count rejects it first
            assert f"header claims {len(pairs)} pairs" in err
        else:
            assert err == truncation_message(family, payload, cut)


# ---------------------------------------------------------------------------
# The two branches of decode_text: the shared table and the family loop
# ---------------------------------------------------------------------------


def short_stream(family, n, seed):
    """Pairs whose codewords average at most TABLE_BITS bits: geometric
    pairs at the design q with their longer codewords dropped, and two
    long ones in the middle, so that lookups both hit and miss."""
    codec = make_codec(family)
    pairs = [p for p in geometric_pairs(family, n, seed) if codeword(codec, p)[1] <= TABLE_BITS]
    pairs[n // 3 : n // 3] = [(0, 40), (9, 0)]
    return pairs


def long_stream(family, n, seed):
    """Pairs that average more than TABLE_BITS bits per pair."""
    rng = random.Random(f"{seed}-{family.label()}")
    return [(rng.randrange(60, 200), rng.randrange(200)) for _ in range(n)]


def fresh_codec(family):
    make_codec.cache_clear()
    return make_codec(family)


# families with codewords of at most TABLE_BITS bits, so that a stream of
# encoded pairs can average that little
SHORT_FAMILIES = [f for f in FAMILIES if f.kind != "ck" or f.k < 255]


@pytest.mark.parametrize("window", range(9, 17))
@pytest.mark.parametrize("family", SHORT_FAMILIES, ids=CodeFamily.label)
def test_table_branch_matches_decode_across_small_windows(monkeypatch, family, window):
    monkeypatch.setattr(BitReader, "WINDOW_BYTES", window)
    pairs = short_stream(family, 100, window)
    codec = fresh_codec(family)
    data, nbits = codec.encode_many(pairs)
    assert nbits <= len(pairs) * TABLE_BITS
    assert_same_decode(family, data, len(pairs))
    assert table_built(codec)
    # counts that end inside a multi-pair slot, and counts that read on
    # into the zero padding of the last byte and past it
    for count in range(len(pairs) - 8, len(pairs) + 9):
        assert_same_decode(family, data, count)


@pytest.mark.parametrize("window", (9, 13, 16))
@pytest.mark.parametrize("family", FAMILIES, ids=CodeFamily.label)
def test_family_branch_matches_decode_across_small_windows(monkeypatch, family, window):
    monkeypatch.setattr(BitReader, "WINDOW_BYTES", window)
    pairs = long_stream(family, 40, window)
    codec = fresh_codec(family)
    data, nbits = codec.encode_many(pairs)
    assert nbits > len(pairs) * TABLE_BITS
    for count in (len(pairs) - 1, len(pairs), len(pairs) + 1):
        assert_same_decode(family, data, count)
    assert not table_built(codec)


@pytest.mark.parametrize(
    "family",
    [CodeFamily("ck", 16), CodeFamily("cminus", 4), CodeFamily("golomb", 1)],
    ids=CodeFamily.label,
)
def test_truncation_in_the_table_branch_names_the_same_pair_and_bit(monkeypatch, tmp_path,
                                                                    capsys, family):
    monkeypatch.setattr(BitReader, "WINDOW_BYTES", 9)
    pairs = short_stream(family, 100, "truncate")
    assert make_codec(family).encode_many(pairs)[1] <= len(pairs) * TABLE_BITS
    assert_cut_messages(tmp_path, capsys, family, pairs)
