import random

import pytest
from codec_families import bit_string
from hypothesis import given, strategies as st

from geompair.bitio import BitReader, BitWriter, Codeword, StreamExhausted


def test_msb_first_single_codeword():
    w = BitWriter()
    w.write(0b101, 3)
    assert w.getvalue()[0] >> 5 == 0b101


def test_empty_codeword_is_noop():
    w = BitWriter()
    w.write(0, 0)
    assert w.bits_written == 0
    assert w.getvalue() == b""


def test_zero_padding_rule():
    w = BitWriter()
    w.write(0b1, 1)
    w.write(0b0, 1)
    assert w.getvalue() == bytes([0b10000000])


def test_read_bits_msb_first():
    r = BitReader(bytes([0b10110000]))
    assert r.read_bits(3) == 0b101
    assert r.bits_consumed == 3


def test_read_zero_bits_is_identity():
    r = BitReader(bytes([0xFF]))
    assert r.read_bits(0) == 0
    assert r.bits_consumed == 0


def test_read_past_end_raises():
    r = BitReader(bytes([0b10100000]))
    r.read_bits(5)
    # only 3 bits remain in the single byte
    with pytest.raises(StreamExhausted):
        r.read_bits(6)
    r.read_bits(3)
    with pytest.raises(StreamExhausted):
        r.read_bit()


def test_read_size_cap():
    r = BitReader(bytes(16))
    with pytest.raises(ValueError):
        r.read_bits(65)
    assert r.read_bits(64) == 0


def test_codeword_validation():
    with pytest.raises(ValueError):
        Codeword(4, 2)
    with pytest.raises(ValueError):
        Codeword(-1, 2)
    with pytest.raises(ValueError):
        Codeword(0, -1)


def test_codeword_concat_and_bits():
    cw = Codeword(0b10, 2) + Codeword(0b1, 3)
    assert cw == Codeword(0b10001, 5)
    assert bit_string(cw.value, cw.length) == "10001"
    assert Codeword(0, 0) + cw == cw + Codeword(0, 0) == cw


@given(
    st.lists(
        st.integers(min_value=0, max_value=200).map(
            lambda n: (n, max(n.bit_length(), 1))
        ),
        min_size=0,
        max_size=50,
    )
)
def test_roundtrip_any_fragmentation(items):
    w = BitWriter()
    for value, length in items:
        w.write(value, length)
    r = BitReader(w.getvalue())
    for value, length in items:
        assert r.read_bits(length) == value
    assert r.bits_consumed == sum(length for _, length in items)
    assert r.bits_consumed == w.bits_written


@given(st.integers(min_value=0, max_value=2**150 - 1), st.integers(1, 64))
def test_long_write_reads_back_in_chunks(value, width):
    length = max(value.bit_length(), 1)
    w = BitWriter()
    w.write(value, length)
    r = BitReader(w.getvalue())
    got = 0
    remaining = length
    while remaining:
        take = min(width, remaining)
        got = (got << take) | r.read_bits(take)
        remaining -= take
    assert got == value


def test_finalized_length_is_whole_bytes():
    w = BitWriter()
    w.write(0b11011, 5)
    assert len(w.getvalue()) * 8 % 8 == 0
    assert len(w.getvalue()) == 1
    w.write(0, 4)
    assert len(w.getvalue()) == 2


def test_writer_rejects_bad_values():
    w = BitWriter()
    with pytest.raises(ValueError):
        w.write(4, 2)
    with pytest.raises(ValueError):
        w.write(1, -1)


def _bit_string(data):
    return "".join(format(b, "08b") for b in data)


def test_writer_flushes_past_threshold_and_stays_usable():
    rng = random.Random(5)
    writes = [(rng.getrandbits(n), n) for n in (rng.choice((1, 3, 7, 64, 300)) for _ in range(400))]
    w = BitWriter()
    expected = ""
    for i, (value, length) in enumerate(writes):
        w.write(value, length)
        expected += format(value, f"0{length}b")
        if i % 97 == 0:  # a mid-stream getvalue must not disturb later writes
            assert _bit_string(w.getvalue())[: len(expected)] == expected
    assert w.bits_written == len(expected) > 8192
    assert _bit_string(w.getvalue()) == expected + "0" * (-len(expected) % 8)


def test_reader_across_windows(monkeypatch):
    monkeypatch.setattr(BitReader, "WINDOW_BYTES", 9)  # smallest legal window
    rng = random.Random(9)
    runs = [rng.choice((0, 1, 5, 71, 200)) for _ in range(60)]
    w = BitWriter()
    ops = []
    for run in runs:
        w.write((1 << (run + 1)) - 2, run + 1)  # run ones then a zero
        width = rng.randint(0, 64)
        value = rng.getrandbits(width)
        w.write(value, width)
        w.write(1, 1)
        ops.append((run, width, value))
    r = BitReader(w.getvalue())
    for run, width, value in ops:
        assert r.read_unary() == run
        assert r.read_bits(width) == value
        assert r.read_bit() == 1
    assert r.bits_consumed == w.bits_written


def test_unary_exhaustion_across_windows_leaves_reader_usable(monkeypatch):
    monkeypatch.setattr(BitReader, "WINDOW_BYTES", 9)
    data = bytes([0b10111111]) + b"\xff" * 40
    r = BitReader(data)
    assert r.read_unary() == 1
    assert r.read_bit() == 1
    with pytest.raises(StreamExhausted):
        r.read_unary()  # the run of ones reaches the end of the data
    assert r.bits_consumed == 3
    assert r.read_bits(5) == 0b11111
    assert r.read_bits(64) == (1 << 64) - 1


@pytest.mark.parametrize("skip", [0, 3, 60])
def test_unary_run_ending_at_every_offset_near_window_edges(monkeypatch, skip):
    monkeypatch.setattr(BitReader, "WINDOW_BYTES", 9)  # 72-bit windows
    for run in range(0, 230):
        w = BitWriter()
        w.write(0, skip)
        w.write((1 << (run + 1)) - 2, run + 1)
        w.write(0b101, 3)
        r = BitReader(w.getvalue())
        r.read_bits(skip)
        assert r.read_unary() == run
        assert r.read_bits(3) == 0b101
