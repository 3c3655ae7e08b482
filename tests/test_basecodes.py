import pytest
from hypothesis import given, strategies as st

from codec_families import bit_string, codeword

from geompair.basecodes import GolombPairCodec, golomb_length
from geompair.bitio import BitReader, BitWriter, Codeword


def golomb_codeword(k, i):
    """Order-k Golomb codeword of i as ``(value, length)``: the pair
    codec's codeword of (i, 0) less the codeword of 0, which is
    golomb_length(k, 0) zeros."""
    value, length = codeword(GolombPairCodec(k), (i, 0))
    zeros = golomb_length(k, 0)
    assert value & ((1 << zeros) - 1) == 0
    return value >> zeros, length - zeros


def quasi_uniform_codeword(n, rank):
    """Quasi-uniform codeword of a rank below n as ``(value, length)``:
    the order-n Golomb codeword of the rank less its quotient's zero."""
    value, length = golomb_codeword(n, rank)
    assert value & 1 == 0
    return value >> 1, length - 1


def test_unary_examples():
    # the order-1 Golomb code is the unary code
    assert bit_string(*golomb_codeword(1, 0)) == "0"
    assert bit_string(*golomb_codeword(1, 3)) == "1110"
    cw = Codeword(*golomb_codeword(1, 10))
    assert cw.length == 11 and cw.value == 2**11 - 2


@pytest.mark.parametrize(
    "n,rank,bits",
    [
        (5, 0, "00"),
        (5, 3, "110"),
        (4, 2, "10"),
        (1, 0, ""),
        (3, 0, "0"),
        (3, 1, "10"),
        (3, 2, "11"),
    ],
)
def test_quasi_uniform_examples(n, rank, bits):
    assert bit_string(*quasi_uniform_codeword(n, rank)) == bits


@pytest.mark.parametrize("n", list(range(1, 600)) + [1023, 1024, 4095, 4096])
def test_quasi_uniform_kraft_exact(n):
    codec = GolombPairCodec(n)
    zeros = golomb_length(n, 0)
    # (r, 0) takes the quasi-uniform codeword of r, its quotient's zero and 0's codeword
    lens = [codeword(codec, (r, 0))[1] - 1 - zeros for r in range(n)]
    assert lens == [golomb_length(n, r) - 1 for r in range(n)]
    top = max(lens)
    assert sum(1 << (top - ln) for ln in lens) == 1 << top


@given(st.integers(min_value=2, max_value=5000))
def test_quasi_uniform_roundtrip(n):
    # a Golomb codeword of order n below n is the quasi-uniform codeword
    # and a zero, so the order-n pair codec reads the ranks back
    w = BitWriter()
    ranks = [0, 1, n // 2, n - 2, n - 1]
    for r in ranks:
        w.write(*quasi_uniform_codeword(n, r))
        w.write(0, 1)
    reader = BitReader(w.getvalue())
    codec = GolombPairCodec(n)
    assert [codec.decode(reader) for _ in range(2)] == [(0, 1), (n // 2, n - 2)]
    assert list(map(int, codec.decode_text(reader, 0).split())) == []
    w.write(*quasi_uniform_codeword(n, 0))
    w.write(0, 1)
    assert list(map(int, codec.decode_text(BitReader(w.getvalue()), 3).split())) == ranks + [0]


@pytest.mark.parametrize(
    "k,i,bits",
    [
        (1, 4, "11110"),
        (3, 7, "10110"),
        (2, 0, "00"),
    ],
)
def test_golomb_examples(k, i, bits):
    assert bit_string(*golomb_codeword(k, i)) == bits


@given(st.integers(1, 64), st.integers(0, 100_000))
def test_golomb_roundtrip(k, i):
    w = BitWriter()
    w.write(*golomb_codeword(k, i))
    w.write(*golomb_codeword(k, k - 1))
    reader = BitReader(w.getvalue())
    assert GolombPairCodec(k).decode(reader) == (i, k - 1)
    assert reader.bits_consumed == w.bits_written


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 24, 64])
def test_golomb_length_nondecreasing(k):
    lens = [golomb_length(k, i) for i in range(6 * k + 5)]
    assert all(a <= b for a, b in zip(lens, lens[1:]))
    assert lens == [golomb_codeword(k, i)[1] for i in range(len(lens))]


@pytest.mark.parametrize("i", [-1, -3, -100])
def test_golomb_length_rejects_negative_arguments(i):
    for k in (1, 3):
        with pytest.raises(ValueError, match="Golomb argument must be >= 0"):
            golomb_length(k, i)
        with pytest.raises(ValueError, match="Golomb argument must be >= 0"):
            codeword(GolombPairCodec(k), (0, i))


def test_read_unary():
    w = BitWriter()
    w.write(*golomb_codeword(1, 7))
    w.write(*golomb_codeword(1, 0))
    r = BitReader(w.getvalue())
    assert r.read_unary() == 7
    assert r.read_unary() == 0


def test_golomb_pair_codec_roundtrip():
    codec = GolombPairCodec(3)
    pairs = [(0, 0), (7, 2), (100, 31), (5, 1000)]
    w = BitWriter()
    for p in pairs:
        codec.encode_to(w, p)
    r = BitReader(w.getvalue())
    assert [codec.decode(r) for _ in pairs] == pairs
    assert codec.encode((7, 2)) == Codeword(*golomb_codeword(3, 7)) + Codeword(*golomb_codeword(3, 2))
