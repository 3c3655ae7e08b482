"""Pair codec for the design points q = 2^(-1/k), k >= 1.

A pair (i, j) is sent as the top codeword for (i mod k, j mod k)
followed by the unary codes of i // k and j // k, in that order on the
wire.  The top code is the canonical code of the optimal fringe-<=2
profile of :func:`geompair.fringe2.top_code_params`; for k = 1 it is
void and the codec degenerates to two unary codes, for k = 2 to the
uniform 2-bit code on 4 symbols.
"""

from bisect import bisect_right
from functools import cached_property

from .basecodes import TABLE_BITS, PairCodec, reload_pair, residue_signature_lengths, window_keys
from .bitio import FLUSH_BITS, BitReader, BitWriter
from .fringe2 import top_code_params


class CkCodec(PairCodec):
    """Immutable pair codec for parameter k; shareable across streams.

    Residue pairs rank by signature t = a + b, ties by a (the order of
    :func:`geompair.fringe2.top_code_symbols`): rank(a, b) is the first
    rank of signature t plus a's offset in it, from O(k) lists, not a k^2
    table.  Ranks fill the levels M-1, M, M+1 of the optimal profile in
    order, each level's codewords counting up from its canonical first
    value.  The state is O(k), so building a codec is cheap for any k;
    the first decode adds a top-code table of at most 2^TABLE_BITS entries
    where the code's longest top codeword fits in TABLE_BITS bits.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        # _starts[t] is the first rank of signature t; rank(a, t - a) = _base[t] + a
        self._starts, self._base = [], []
        rank = 0
        for t in range(2 * k - 1):
            lo = max(0, t - k + 1)
            self._starts.append(rank)
            self._base.append(rank - lo)
            rank += min(t, k - 1) - lo + 1
        # (length, first value, first rank, count) of each occupied level,
        # padded at the front to exactly three for the loops' unrolled
        # level tests; a padding level has limit 0 and is never taken
        prof = top_code_params(k).profile
        levels, value, rank = [], 0, 0
        for length, count in zip((prof.M - 1, prof.M, prof.M + 1), prof.leaves):
            if count:
                levels.append((length, value, rank, count))
            value, rank = (value + count) << 1, rank + count
        self._window_bits = longest = levels[-1][0]
        levels = [(0, 0, 0, 0)] * (3 - len(levels)) + levels
        # For encoding, (rank limit, value - rank, length).  For canonical
        # decoding from a left-justified window of the longest length
        # (Moffat & Turpin, IEEE Trans. Comm. 1997), (window limit, shift
        # to the level's length, rank - value, length).
        self._encode_levels = tuple(
            (first_rank + count, first_value - first_rank, length)
            for length, first_value, first_rank, count in levels
        )
        self._decode_levels = tuple(
            ((first_value + count) << (longest - length), longest - length,
             first_rank - first_value, length)
            for length, first_value, first_rank, count in levels
        )
        base = self._base
        (rank_1, offset_1, length_1), (rank_2, offset_2, length_2), (_, offset_3, length_3) = (
            self._encode_levels
        )

        def coder(i: int, j: int) -> tuple[int, int]:
            if i < 0 or j < 0:
                raise ValueError("pair components must be >= 0")
            u, a = divmod(i, k)
            v, b = divmod(j, k)
            # the top codeword of (a, b), from the level of its rank
            rank = base[a + b] + a
            if rank < rank_1:
                value, length = rank + offset_1, length_1
            elif rank < rank_2:
                value, length = rank + offset_2, length_2
            else:
                value, length = rank + offset_3, length_3
            # append u ones and a zero, then v ones and a zero
            return ((((value + 1) << (u + 1)) - 1) << (v + 1)) - 2, length + u + v + 2

        self._coder = coder

    def length_of(self, pair: tuple[int, int]) -> int:
        return self._coder(*pair)[1]

    signature_lengths = residue_signature_lengths

    def _encode_token_pairs(self, tokens: list[str]) -> tuple[bytes, int]:
        """``encode_many`` of the pairs of ``tokens``, each distinct token converted
        once, for this call only, to its residue and the unary code of its quotient:
        a pair costs two lookups, its top codeword and the packing."""
        k = self.k
        parts = {}  # token -> (residue, unary value, unary length)
        for token in set(tokens):
            quot, rem = divmod(int(token), k)
            if quot < 0:
                raise ValueError("pair components must be >= 0")
            parts[token] = rem, (2 << quot) - 2, quot + 1
        base = self._base
        (rank_1, offset_1, length_1), (rank_2, offset_2, length_2), (_, offset_3, length_3) = (
            self._encode_levels
        )
        writer = BitWriter()
        flush = writer.flush
        acc = nacc = 0
        codes = map(parts.__getitem__, tokens)
        for (a, unary_u, length_u), (b, unary_v, length_v) in zip(codes, codes):
            rank = base[a + b] + a
            if rank < rank_1:
                value, length = rank + offset_1, length_1
            elif rank < rank_2:
                value, length = rank + offset_2, length_2
            else:
                value, length = rank + offset_3, length_3
            length += length_u + length_v
            acc = (acc << length) | (((value << length_u | unary_u) << length_v) | unary_v)
            nacc += length
            if nacc >= FLUSH_BITS:
                acc, nacc = flush(acc, nacc)
        writer.write(acc, nacc)
        return writer.getvalue(), writer.bits_written

    @cached_property
    def _top_table(self) -> dict[str, tuple[int, int, int]] | None:
        """``(a, b, length)`` of the top codeword that opens each left-justified
        window of the longest top length, keyed by the window's string, or None
        where that length is over TABLE_BITS: at most 2^TABLE_BITS entries, built
        on the first decode.  For k = 1 the one window is ``""``, the void codeword."""
        width = self._window_bits
        if width > TABLE_BITS:
            return None
        table = [None] * (1 << width)
        for a in range(self.k):
            for b in range(self.k):
                value, length = self._coder(a, b)  # the top codeword and two unary zeros
                value, length = value >> 2, length - 2
                shift = width - length
                table[value << shift : (value + 1) << shift] = [(a, b, length)] * (1 << shift)
        return dict(zip(window_keys(width), table))

    def _decode_run(self, reader: BitReader, count: int) -> list[int]:
        k = self.k
        starts, base, width = self._starts, self._base, self._window_bits
        (limit_1, shift_1, offset_1, length_1), (limit_2, shift_2, offset_2, length_2), (
            _, shift_3, offset_3, length_3) = self._decode_levels
        top = self._top_table
        bits, pos, nbits = reader.window()
        find = bits.find
        out: list[int] = []
        append = out.append
        for index in range(count):
            while True:
                # the top codeword from a left-justified window of the
                # longest length, through the top table or from its level;
                # the two unary zeros after a shorter codeword keep that
                # window inside the pair's codeword
                end = pos + width
                if end <= nbits:
                    if top:
                        a, b, length = top[bits[pos:end]]
                        end = pos + length
                    else:
                        window = int(bits[pos:end], 2)
                        if window < limit_1:
                            rank, end = (window >> shift_1) + offset_1, pos + length_1
                        elif window < limit_2:
                            rank, end = (window >> shift_2) + offset_2, pos + length_2
                        else:
                            rank, end = (window >> shift_3) + offset_3, pos + length_3
                        t = bisect_right(starts, rank) - 1
                        a = rank - base[t]
                        b = t - a
                    zero_u = find("0", end)
                    zero_v = find("0", zero_u + 1) if zero_u >= 0 else -1
                    if zero_v >= 0:
                        u, v, pos = zero_u - end, zero_v - zero_u - 1, zero_v + 1
                        break
                (bits, pos, nbits), found = reload_pair(reader, pos, index, end - pos, 2)
                find = bits.find
                if found:  # the window holds the top codeword
                    u, v = found
                    break
            append(a + k * u)
            append(b + k * v)
        reader.seek_window(pos)
        return out
