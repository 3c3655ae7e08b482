"""The coding paths shared by every pair codec, and the Golomb pair codec.

:class:`PairCodec` holds the public encoders and decoders and the three
coding tables that every codec shares.  :class:`GolombPairCodec` is the
only implementation of the Golomb code of order k (order 1 is unary): it
sends the k-ary remainder through the quasi-uniform code on N = k
symbols, then the quotient in unary.  A quasi-uniform code on N symbols
uses the two lengths floor(log2 N) and ceil(log2 N); the shorter
codewords go to the smaller (more probable) ranks, and ranks are
0-based.
"""

from functools import cache, cached_property

from .bitio import FLUSH_BITS, BitReader, BitWriter, Codeword, StreamExhausted


def quasi_uniform_shape(n: int) -> tuple[int, int]:
    """``(m, short_count)`` of the quasi-uniform code on N symbols:
    m = ceil(log2 N) (0 for N = 1) and short_count = 2^m - N."""
    if n < 1:
        raise ValueError("alphabet size must be >= 1")
    m = (n - 1).bit_length()
    return m, (1 << m) - n


def golomb_length(k: int, i: int) -> int:
    """Length in bits of the order-k Golomb codeword for i."""
    if i < 0:
        raise ValueError("Golomb argument must be >= 0")
    m, short_count = quasi_uniform_shape(k)
    return (m - 1 if i % k < short_count else m) + i // k + 1


def exhausted(reader: BitReader, index: int, start: int) -> StreamExhausted:
    """The StreamExhausted of pair ``index``, which starts at stream bit ``start``;
    the reader is moved back to that start."""
    left = reader.bits_consumed + reader.bits_remaining - start
    pos = reader.window()[1] + start - reader.bits_consumed
    reader.seek_window(pos)
    if pos < 0:  # the pair starts before the window
        reader.reload_window()
    exc = StreamExhausted(f"the payload holds only {left} of its bits")
    exc.pair, exc.start = index, start
    return exc


def reload_pair(reader: BitReader, pos: int, index: int, skip: int, runs: int, back: int = 0):
    """``(window, found)`` for a family loop whose codeword of pair
    ``index``, which starts ``back`` bits before window position ``pos``,
    may leave the window string.

    Mostly the window is reloaded from the byte of ``pos`` and ``found`` is
    None: the loop decodes the codeword again.  If the window starts at that
    byte already and the stream goes on, the codeword is longer than a
    window: ``found`` holds the ``runs`` runs of ones from ``skip`` bits past
    ``pos``, read with ``read_unary``, and the window is the one after them.
    If the window holds the rest of the stream, the pair runs off its end
    and its StreamExhausted is raised.
    """
    reader.seek_window(pos)
    start = reader.bits_consumed - back
    if reader.bits_remaining <= reader.window()[2] - pos:
        raise exhausted(reader, index, start) from None
    if pos >= 8:
        return reader.reload_window(), None
    reader.seek_window(pos + skip)
    try:
        found = [reader.read_unary() for _ in range(runs)]
    except StreamExhausted:
        raise exhausted(reader, index, start) from None
    return reader.window(), found


# window bits of one decode-table lookup: the table has 2^TABLE_BITS slots
# for any code, and a stream that averages at most TABLE_BITS bits per pair
# decodes through it (see CHANGES.md for the timings behind the value)
TABLE_BITS = 11
# pairs with both components below 2^SMALL_BITS take their codeword from
# the encode table, 4^SMALL_BITS entries
SMALL_BITS = 4
# the longest codeword that encode_tokens builds as a string, a byte per bit
MISS_BITS = 64


@cache
def window_keys(width: int) -> list[str]:
    """The 2^width windows of ``width`` bits as ``'0'``/``'1'`` strings in numeric
    order, ``[""]`` for width 0: the keys of a decode table, which a loop indexes
    with the window string's slice.  Each key is a high half and a low half joined,
    the halves ``bin(2^w + n)`` less its ``0b1``.  The list is built once per
    width and shared, so a caller must not change it."""
    if width < 8:
        return [bin(n)[3:] for n in range(1 << width, 2 << width)]
    low = window_keys(width >> 1)
    return [high + end for high in window_keys(width - (width >> 1)) for end in low]


def pack_bits(bits: str) -> tuple[bytes, int]:
    """The zero-padded bytes of the ``'0'``/``'1'`` string ``bits`` and its bit count."""
    return (int(bits or "0", 2) << (-len(bits) & 7)).to_bytes((len(bits) + 7) >> 3, "big"), len(bits)


class _LongCodeword(Exception):
    """A codeword of over MISS_BITS bits, or one that does not fit its length."""


class PairCodec:
    """Coding paths shared by every pair codec.

    A codec builds ``_coder(i, j) -> (value, length)``, its one per-pair
    encoder, once, with its state in local variables; :meth:`encode`,
    :meth:`encode_to` and :meth:`encode_many` wrap it.
    ``encode_many(pairs) -> (stream, bits)``, the zero-padded stream of all
    pairs' codewords and its payload bit count, takes the codewords of small
    pairs from :attr:`_encode_table` and calls ``_coder`` for the rest.  A
    codec also implements ``_decode_run(reader, count)``, its single
    decoder, and ``signature_lengths(s)``: for s >= 0, the lengths of the
    s + 1 codewords of the pairs (i, s - i), as ``((length, count), ...)``
    groups whose counts sum to s + 1 (a count may be 0), the one source of
    lengths for the analysis.

    ``_decode_run`` returns the next ``count`` pairs' components, flat
    (``[i0, j0, i1, j1, ...]``), and leaves the reader after them.  It
    scans the reader's window string; where a codeword may leave it, it
    reloads the window from the pair's byte (:func:`reload_pair`) and reads
    the runs of ones of a pair longer than a window with ``read_unary``.
    If the stream ends first, the :class:`StreamExhausted` carries the
    index of the pair that ran off the end in ``pair`` and its start bit
    in ``start``.  :meth:`decode` is one pair of it; :meth:`decode_text`,
    the batch decoder, reads a stream of short codewords through
    :attr:`_decode_table` and hands the rest to it.  The tables are built
    from ``_coder`` on first use and never change, so a codec stays
    immutable and shareable.
    """

    def encode(self, pair: tuple[int, int]) -> Codeword:
        return Codeword(*self._coder(*pair))

    def encode_to(self, writer: BitWriter, pair: tuple[int, int]) -> None:
        writer.write(*self._coder(*pair))

    def encode_many(self, pairs) -> tuple[bytes, int]:
        coder = self._coder
        small = self._encode_table
        writer = BitWriter()
        flush = writer.flush
        acc = nacc = 0
        for i, j in pairs:
            if not (i | j) >> SMALL_BITS:  # both in [0, 2^SMALL_BITS)
                value, length = small[i << SMALL_BITS | j]
            else:
                value, length = coder(i, j)
                if value >> length:
                    raise ValueError(f"value {value} does not fit in {length} bits")
            acc = (acc << length) | value
            nacc += length
            if nacc >= FLUSH_BITS:
                acc, nacc = flush(acc, nacc)
        writer.write(acc, nacc)
        return writer.getvalue(), writer.bits_written

    def decode(self, reader: BitReader) -> tuple[int, int]:
        return tuple(self._decode_run(reader, 1))

    def encode_tokens(self, tokens: list[str]) -> tuple[bytes, int]:
        """``encode_many`` of the pairs of ``tokens``, an even count of decimal strings.  Of
        its bad tokens, negative or too long to convert, it reports the first in stream
        order, whatever order ``_encode_tokens`` converts them in."""
        try:
            return self._encode_tokens(tokens)
        except ValueError:
            for token in tokens:
                if int(token) < 0:
                    self._coder(int(token), 0)
            raise

    def _encode_tokens(self, tokens: list[str]) -> tuple[bytes, int]:
        """The codeword strings of :attr:`_token_table`, packed by one ``int(bits, 2)``."""
        pairs = iter(tokens)
        try:
            return pack_bits("".join(map(self._token_table.__getitem__, zip(pairs, pairs))))
        except _LongCodeword:
            return self._encode_token_pairs(tokens)

    def _encode_token_pairs(self, tokens: list[str]) -> tuple[bytes, int]:
        """``encode_tokens`` past MISS_BITS: ``encode_many`` of the tokens' ints."""
        values = iter(list(map(int, tokens)))  # converting them in the loop is slower
        return self.encode_many(zip(values, values))

    @cached_property
    def _encode_table(self) -> tuple[tuple[int, int], ...]:
        """``_coder(i, j)`` at index ``i << SMALL_BITS | j``, for
        0 <= i, j < 2^SMALL_BITS, each checked to fit its length."""
        table = []
        for i in range(1 << SMALL_BITS):
            for j in range(1 << SMALL_BITS):
                value, length = self._coder(i, j)
                if value >> length:
                    raise ValueError(f"value {value} does not fit in {length} bits")
                table.append((value, length))
        return tuple(table)

    @cached_property
    def _token_table(self) -> dict[tuple[str, str], str]:
        """:attr:`_encode_table` as ``{("3", "0"): "0101...", ...}``."""
        coder = self._coder

        class TokenView(dict):  # codes a pair that it does not hold on lookup, and keeps none
            def __missing__(self, pair: tuple[str, str]) -> str:
                value, length = coder(int(pair[0]), int(pair[1]))
                if length > MISS_BITS or value >> length:
                    raise _LongCodeword
                return format(value, f"0{length}b")

        side = 1 << SMALL_BITS
        return TokenView({(str(n // side), str(n % side)): format(value, f"0{length}b")
                          for n, (value, length) in enumerate(self._encode_table)})

    @cached_property
    def _decode_table(self) -> dict[str, tuple[int, int, str]]:
        """For each TABLE_BITS-bit window, keyed by its string, the whole pairs it
        starts with: ``(bits, pairs, text)``, ``text`` as ``decode_text`` prints them
        and ``pairs`` 0 where no codeword of at most TABLE_BITS bits opens it.

        Built from ``_coder`` over the signatures up to the first with no
        codeword of at most TABLE_BITS bits; in every family the shortest
        length of a signature does not fall as the signature grows.  One
        depth-first walk goes over the chains of whole codewords that fit
        a window: a chain's slot fills the windows it prefixes, and each
        chain one codeword longer then overwrites its own part of them.
        The code is prefix-free, so the windows that a chain prefixes
        start with no other chain but its own extensions.
        """
        codewords = []  # (length, value, text), at most TABLE_BITS bits
        s, fits = 0, True
        while fits:
            fits = False
            for i in range(s + 1):
                value, length = self._coder(i, s - i)
                if length <= TABLE_BITS:
                    codewords.append((length, value, "%d %d\n" % (i, s - i)))
                    fits = True
            s += 1
        codewords.sort()
        shortest = codewords[0][0] if codewords else 0
        table = [(0, 0, "")] * (1 << TABLE_BITS)
        chains = [(0, 0, 0, "")]  # (value, bits, pairs, text) of each chain to extend
        while chains:
            value, bits, pairs, text = chains.pop()
            room, pairs = TABLE_BITS - bits, pairs + 1
            for length, tail, line in codewords:
                shift = room - length
                if shift < 0:
                    break
                chain = value << length | tail
                slot = TABLE_BITS - shift, pairs, text + line
                if shift:
                    table[chain << shift : (chain + 1) << shift] = [slot] * (1 << shift)
                    if shift >= shortest:  # room for one more codeword
                        chains.append((chain, *slot))
                else:  # the chain fills a whole window
                    table[chain] = slot
        return dict(zip(window_keys(TABLE_BITS), table))

    def decode_text(self, reader: BitReader, count: int) -> str:
        """The next ``count`` pairs printed as ``"i j\\n"`` lines: the components that
        ``_decode_run`` returns or the error it raises.  Where the pairs average at most
        TABLE_BITS bits, as the stream's length tells, the decode table reads them."""
        if 0 < count and reader.bits_remaining <= count * TABLE_BITS:
            return self._read(reader, count)
        return "%d %d\n" * count % tuple(self._decode_run(reader, count))

    def _read(self, reader: BitReader, count: int) -> str:
        """``decode_text`` on the table path: one lookup per window, and ``_decode_run``
        for a pair where a window opens with a longer codeword, reaches past the window
        string or holds too many pairs."""
        table = self._decode_table
        decode_run = self._decode_run
        width = TABLE_BITS
        bits, pos, nbits = reader.window()
        out: list[str] = []
        add = out.append
        left = count
        while left:
            end = pos + width
            if end <= nbits:
                used, pairs, text = table[bits[pos:end]]
                if 0 < pairs <= left:
                    add(text)
                    pos += used
                    left -= pairs
                    continue
            reader.seek_window(pos)
            try:
                pair = decode_run(reader, 1)
            except StreamExhausted as exc:
                exc.pair += count - left
                raise
            add("%d %d\n" % tuple(pair))
            left -= 1
            bits, pos, nbits = reader.window()
        reader.seek_window(pos)
        return "".join(out)


def residue_signature_lengths(codec: PairCodec, s: int) -> tuple[tuple[int, int], ...]:
    """``signature_lengths(s)`` of a pair code of order ``codec.k`` that sends
    the residues (a, b) = (i mod k, j mod k), then both quotients in unary
    (ck and Golomb): the method of both codecs.

    For a, b < k the coder's length is the residues' codeword and two unary
    zeros.  Within one residue a of i, b = (s - a) mod k is fixed and the
    quotients sum to (s - a - b) / k, so the (s - a) // k + 1 pairs of that
    residue share one length.
    """
    if s < 0:
        raise ValueError("signature must be >= 0")
    k, coder = codec.k, codec._coder
    groups = []
    for a in range(min(k, s + 1)):
        b = (s - a) % k
        groups.append((coder(a, b)[1] + (s - a - b) // k, (s - a) // k + 1))
    return tuple(groups)


class GolombPairCodec(PairCodec):
    """Pair codec applying the order-k Golomb code to each component."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("Golomb order must be >= 1")
        self.k = k
        m, short_count = quasi_uniform_shape(k)

        def coder(i: int, j: int) -> tuple[int, int]:
            if i < 0 or j < 0:
                raise ValueError("Golomb argument must be >= 0")
            quot_i, rem_i = divmod(i, k)
            quot_j, rem_j = divmod(j, k)
            # each quasi-uniform remainder, m - 1 bits below short_count and
            # m bits of rem + short_count above, then quot ones and a zero
            short_i, short_j = rem_i < short_count, rem_j < short_count
            value_i = (((rem_i if short_i else rem_i + short_count) + 1) << (quot_i + 1)) - 2
            value_j = (((rem_j if short_j else rem_j + short_count) + 1) << (quot_j + 1)) - 2
            length_j = m - short_j + quot_j + 1
            return (value_i << length_j) | value_j, m - short_i + quot_i + 1 + length_j

        self._coder = coder

    signature_lengths = residue_signature_lengths

    def _encode_tokens(self, tokens: list[str]) -> tuple[bytes, int]:
        """``encode_many`` of the pairs of ``tokens``: each distinct token's codeword
        string, its quasi-uniform remainder and unary quotient, built once for this
        call, joined and packed by one ``int(bits, 2)``.  A stream with a token of over
        MISS_BITS bits takes the int fallback instead."""
        if len(tokens) & 1:  # the pairs end before the last token
            tokens = tokens[:-1]
        coder, k = self._coder, self.k
        zero = coder(0, 0)[1] >> 1  # the codeword of 0, which coder(n, 0) ends with
        codewords = {}
        for token in set(tokens):
            n = int(token)
            if n // k >= MISS_BITS:
                return self._encode_token_pairs(tokens)
            value, length = coder(n, 0)
            if length - zero > MISS_BITS:
                return self._encode_token_pairs(tokens)
            codewords[token] = format(value >> zero, f"0{length - zero}b")
        return pack_bits("".join(map(codewords.__getitem__, tokens)))

    def _decode_run(self, reader: BitReader, count: int) -> list[int]:
        # the components one after the other, each remainder from an m-bit
        # window, which the unary zero after it keeps inside the codeword:
        # its first m - 1 bits tell a short remainder codeword from a long
        # one; for k = 1, m is 0 and no bit is read.  The second component
        # of a pair starts golomb_length(k, i) bits into it.
        k = self.k
        m, short_count = quasi_uniform_shape(k)
        bits, pos, nbits = reader.window()
        find = bits.find
        out: list[int] = []
        append = out.append
        for half in range(2 * count):
            while True:
                end = pos + m
                if end <= nbits:
                    window = int(bits[pos:end], 2) if m else 0
                    if window >> 1 < short_count:
                        rem, end = window >> 1, end - 1
                    else:
                        rem = window - short_count
                    zero = find("0", end)
                    if zero >= 0:
                        append(k * (zero - end) + rem)
                        pos = zero + 1
                        break
                back = golomb_length(k, out[-1]) if half & 1 else 0
                (bits, pos, nbits), found = reload_pair(reader, pos, half >> 1, end - pos, 1, back)
                find = bits.find
                if found:  # the window holds the remainder
                    append(k * found[0] + rem)
                    break
        reader.seek_window(pos)
        return out
