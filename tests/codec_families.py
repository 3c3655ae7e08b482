"""The code families that the codec tests run over, the reference codecs
they are checked against, the length model, the pair generators, and the
checks that hold a codec to them on a stream of pairs.

The ``Ref*`` codecs are the package's original ones.  Their encoders
built every codeword by concatenating ``Codeword`` objects, looked the ck
top code up in a k^2 table of :func:`canonical_codewords` and allocated
cminus codewords signature by signature.  Their decoders read the
original codes with the ``BitReader`` primitives ``read_bits``,
``read_bit`` and ``read_unary``: the ck one matches the top codeword a
bit at a time against the k^2 table, and the limit and cminus ones walk
every signature from 0.
"""

import functools
import random

from reference_theory import top_code_symbols

from geompair.basecodes import golomb_length, quasi_uniform_shape
from geompair.bitio import BitReader, BitWriter, Codeword
from geompair.cminus_codec import limit_row, signature_length_row
from geompair.families import CodeFamily, make_codec
from geompair.fringe2 import top_code_params

FAMILIES = (
    [CodeFamily("ck", k) for k in (1, 2, 3, 16, 255, 256)]
    + [CodeFamily("cminus", k) for k in (2, 3, 4, 10)]
    + [CodeFamily("limit")]
    + [CodeFamily("golomb", k) for k in (1, 2, 3, 7)]
)


def codeword(codec, pair):
    """The codec's codeword of ``pair`` as ``(value, length)``."""
    word = codec.encode(pair)
    return word.value, word.length


def bit_string(value, length):
    """The codeword ``(value, length)`` as a ``'01'`` string, empty for length 0."""
    return format(value, f"0{length}b") if length else ""


def top_codeword(codec, a, b):
    """Top codeword of the residue pair (a, b) of a ``CkCodec``, as
    ``(value, length)``: the codeword of (a, b) less its two unary zeros."""
    value, length = codeword(codec, (a, b))
    assert value & 3 == 0
    return value >> 2, length - 2


def table_built(codec):
    return "_decode_table" in vars(codec)


# ---------------------------------------------------------------------------
# The reference codecs
# ---------------------------------------------------------------------------


def canonical_codewords(lengths: list[int]) -> list[Codeword]:
    """Canonical prefix codewords for a nondecreasing list of lengths.

    Codeword values increase numerically in list order; each step shifts
    left by the length difference.  Raises ValueError if the lengths
    decrease somewhere or overflow the code space (Kraft sum above 1).
    """
    out: list[Codeword] = []
    value = 0
    cur_len = lengths[0] if lengths else 0
    for length in lengths:
        if length < cur_len:
            raise ValueError("lengths must be nondecreasing")
        value <<= length - cur_len
        cur_len = length
        if value >> length:
            raise ValueError("lengths overflow the code space")
        out.append(Codeword(value, length))
        value += 1
    return out


def ref_unary(n):
    return Codeword((1 << (n + 1)) - 2, n + 1)


def ref_quasi_uniform(n, rank):
    m, short_count = quasi_uniform_shape(n)
    if rank < short_count:
        return Codeword(rank, m - 1)
    return Codeword(rank + short_count, m)


def ref_quasi_uniform_decode(n, reader):
    m, short_count = quasi_uniform_shape(n)
    if m == 0:
        return 0
    value = reader.read_bits(m - 1)
    if value < short_count:
        return value
    return ((value << 1) | reader.read_bit()) - short_count


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
        self.symbols = {(cw.value, cw.length): sym for sym, cw in self.table.items()}

    def encode(self, pair):
        i, j = pair
        k = self.k
        return self.table[(i % k, j % k)] + ref_unary(i // k) + ref_unary(j // k)

    def decode(self, reader):
        value = length = 0
        while (value, length) not in self.symbols:
            value = (value << 1) | reader.read_bit()
            length += 1
        a, b = self.symbols[value, length]
        u = reader.read_unary()
        return a + self.k * u, b + self.k * reader.read_unary()


class RefCminus:
    """The original cminus codec: a per-signature allocation table grown
    signature by signature, and a decoder that walks it from signature 0.
    The table keeps the code space left at each block's first value, not
    the value, a number of Lambda_s bits: a block of L-bit codewords that
    starts with d left starts at the value 2^L - d."""

    def __init__(self, k):
        self.k = k
        # per signature: (lam, n_short, n_long, short_left, long_left)
        self.rows = []
        self.left = 1  # the code space left at next_length: all of it
        self.next_length = 0

    def row(self, s):
        while len(self.rows) <= s:
            cur = len(self.rows)
            row = signature_length_row(self.k, cur)
            lefts = []
            for length, count in ((row.lam, row.n_short), (row.lam + 1, row.n_long)):
                if count == 0:
                    lefts.append(None)
                    continue
                if length < self.next_length:
                    raise AssertionError(f"length sequence decreases at signature {cur}")
                self.left <<= length - self.next_length
                self.next_length = length
                lefts.append(self.left)
                self.left -= count
            self.rows.append((row.lam, row.n_short, row.n_long, *lefts))
        return self.rows[s]

    def encode(self, pair):
        i, j = pair
        lam, n_short, _, short_left, long_left = self.row(i + j)
        if i < n_short:
            return Codeword((1 << lam) - short_left + i, lam)
        return Codeword((2 << lam) - long_left + (i - n_short), lam + 1)

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
            rank = ref_quasi_uniform_decode(s + 2, reader)
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

    def decode(self, reader):
        rem_i = ref_quasi_uniform_decode(self.k, reader)
        i = self.k * reader.read_unary() + rem_i
        rem_j = ref_quasi_uniform_decode(self.k, reader)
        return i, self.k * reader.read_unary() + rem_j


@functools.cache
def reference(family):
    if family.kind == "ck":
        return RefCk(family.k)
    if family.kind == "cminus":
        return RefCminus(family.k)
    if family.kind == "limit":
        return RefLimit()
    return RefGolomb(family.k)


def reference_stream(family, pairs):
    """The reference codewords of ``pairs``, their stream and its bit count."""
    codewords = list(map(reference(family).encode, pairs))
    writer = BitWriter()
    for cw in codewords:
        writer.write(cw.value, cw.length)
    return codewords, writer.getvalue(), writer.bits_written


def modelled_length(family, pair):
    """Codeword length from the family's length model, not from its encoder."""
    i, j = pair
    k = family.k
    if family.kind == "ck":
        return reference(family).table[i % k, j % k].length + i // k + j // k + 2
    if family.kind == "golomb":
        return golomb_length(k, i) + golomb_length(k, j)
    row = limit_row(i + j) if family.kind == "limit" else signature_length_row(k, i + j)
    return row.lam if i < row.n_short else row.lam + 1


# ---------------------------------------------------------------------------
# Pairs
# ---------------------------------------------------------------------------


def design_q(family):
    if family.kind in ("ck", "golomb"):
        return 2 ** (-1 / family.k)
    if family.kind == "cminus":
        return 2.0 ** -family.k
    return 0.2


def _geometric(rng, q):
    n = 0
    while rng.random() < q:
        n += 1
    return n


def geometric_pairs(family, n, seed):
    rng = random.Random(f"{seed}-{family.kind}-{family.k}")
    q = design_q(family)
    return [(_geometric(rng, q), _geometric(rng, q)) for _ in range(n)]


def random_pairs(family, n=300):
    """Geometric pairs near the family's design point, plus uniform ones."""
    rng = random.Random(f"{family.kind}-{family.k}")
    q = design_q(family)
    pairs = [(_geometric(rng, q), _geometric(rng, q)) for _ in range(n)]
    spread = 4 * max(family.k, 2)
    pairs += [(rng.randrange(spread), rng.randrange(spread)) for _ in range(n // 3)]
    return pairs


def extreme_pairs(family):
    """Zero, very long unary runs (ck, golomb) and signatures >= 1024."""
    if family.kind in ("ck", "golomb"):
        long = 3000 * family.k
        return [(0, 0), (long, 0), (0, long), (long + 1, long - 1), (0, 0)]
    return [(0, 0), (1024, 0), (0, 1024), (512, 513), (700, 400), (0, 0)]


def power_of_two_pairs():
    """Zero pairs and signatures near 512 and 4096, in both orders."""
    pairs = [(0, 0)]
    for s in (511, 512, 513, 4095, 4096, 4097):
        pairs += [(0, s), (s, 0), (s // 2, s - s // 2), (s - 1, 1)]
    return pairs + [(0, 0)]


# far pairs: signatures of 20000, codewords of thousands of bits
FAR_PAIRS = [(0, 20000), (20000, 0), (0, 0), (12345, 6789), (1, 4096), (4096, 1)]


def every_pair(signatures):
    return [(i, s - i) for s in signatures for i in range(s + 1)]


def long_runs(seed, n, shortest, spread, tail):
    """n runs of ``shortest`` to ``shortest + spread - 1`` ones, each
    followed by a zero and ``tail`` random bits, then zeros to a byte."""
    rng = random.Random(seed)
    bits = "".join(
        "1" * (shortest + rng.randrange(spread)) + "0" + format(rng.getrandbits(tail), f"0{tail}b")
        for _ in range(n)
    )
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------


def assert_lengths(family, pairs):
    """Each pair's codeword has the length of the family's model."""
    codec = make_codec(family)
    for pair in pairs:
        assert codeword(codec, pair)[1] == modelled_length(family, pair), pair


def assert_decodes(codec, pairs):
    """A loop of ``decode`` reads ``pairs`` back from ``encode_many``'s stream, to its last bit."""
    data, nbits = codec.encode_many(pairs)
    reader = BitReader(data)
    assert [codec.decode(reader) for _ in pairs] == pairs
    assert reader.bits_consumed == nbits


def assert_codes(family, pairs):
    """Every encode route of the codec of ``family``, ``encode_tokens`` (the
    CLI's) and ``encode_to`` (one codeword at a time) among them, gives
    the reference stream of ``pairs``; every decode route and the reference
    decoder read the pairs back from it and stop at its last bit."""
    codewords, data, nbits = reference_stream(family, pairs)
    codec = make_codec(family)
    assert [codec.encode(p) for p in pairs] == codewords
    writer = BitWriter()
    for p in pairs:
        codec.encode_to(writer, p)
    flat = [x for pair in pairs for x in pair]
    for route, got in (
        ("encode_to", (writer.getvalue(), writer.bits_written)),
        ("encode_many", codec.encode_many(pairs)),
        ("encode_many of an iterator", codec.encode_many(iter(pairs))),
        ("encode_tokens", codec.encode_tokens(list(map(str, flat)))),
    ):
        assert got == (data, nbits), route
    count = len(pairs)
    reads = [
        (lambda r: [codec.decode(r) for _ in pairs], pairs),
        (lambda r: codec._decode_run(r, count), flat),
        (lambda r: codec.decode_text(r, count), "%d %d\n" * count % tuple(flat)),
    ]
    # the cminus and limit reference decoders walk every signature from 0
    # for each pair, so they read only streams of short walks
    if family.kind in ("ck", "golomb") or sum(flat) + count <= 20_000:
        reads.append((lambda r: [reference(family).decode(r) for _ in pairs], pairs))
    for read, want in reads:
        reader = BitReader(data)
        assert read(reader) == want
        assert reader.bits_consumed == nbits
