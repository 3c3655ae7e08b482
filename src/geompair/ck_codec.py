"""Pair codec for the design points q = 2^(-1/k), k >= 1.

A pair (i, j) is sent as the top codeword for (i mod k, j mod k)
followed by the unary codes of i // k and j // k, in that order on the
wire.  The top code is the canonical code of the optimal fringe-<=2
profile of :func:`geompair.fringe2.top_code_params`; for k = 1 it is
void and the codec degenerates to two unary codes, for k = 2 to the
uniform 2-bit code on 4 symbols.
"""

from functools import cached_property
from math import isqrt

from .basecodes import (MISS_BITS, TABLE_BITS, GolombPairCodec, PairCodec, pack_bits,
                        reload_pair, residue_signature_lengths, window_keys)
from .bitio import FLUSH_BITS, BitReader, BitWriter
from .fringe2 import top_code_params


class CkCodec(PairCodec):
    """Immutable pair codec for parameter k; shareable across streams.

    Residue pairs rank by signature t = a + b, ties broken by a: rank(a, b)
    is the first rank of signature t plus a's offset in it, from an O(k)
    list, not a k^2 table, and the decoder finds the signature of a rank
    in closed form.  Ranks fill the levels M-1, M, M+1 of the optimal profile in
    order, each level's codewords counting up from its canonical first
    value.  The state is O(k), so building a codec is cheap for any k.
    Where the code's longest top codeword fits in TABLE_BITS bits (k <= 37),
    the first decode adds a top table of 2^TABLE_BITS entries, and the
    first ``encode_tokens`` the k^2 <= 2^TABLE_BITS top codeword strings.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        # rank(a, t - a) = _base[t] + a, _base[t] being the first rank of
        # signature t less its lowest a
        self._base = []
        rank = 0
        for t in range(2 * k - 1):
            lo = max(0, t - k + 1)
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

    def _encode_tokens(self, tokens: list[str]) -> tuple[bytes, int]:
        """``encode_many`` of the pairs of ``tokens``, each distinct token converted
        once, for this call only, to its residue and the unary code of its quotient.
        Where the top code fits TABLE_BITS bits and no unary code is longer than
        MISS_BITS, a pair is three strings, its top codeword from :attr:`_top_strings`
        and the two unary codes, and the stream is packed by one ``int(bits, 2)``;
        otherwise a pair costs its top codeword's rank arithmetic and the packing."""
        k = self.k
        if k == 1:  # the order-1 Golomb code, bit for bit
            return GolombPairCodec._encode_tokens(self, tokens)
        top = self._top_strings
        if top is not None:
            strings = {}  # token -> (residue * k, residue, unary string)
            for token in set(tokens):
                quot, rem = divmod(int(token), k)
                if quot < 0:
                    raise ValueError("pair components must be >= 0")
                if quot >= MISS_BITS:
                    break
                strings[token] = rem * k, rem, "1" * quot + "0"
            else:
                codes = map(strings.__getitem__, tokens)
                out: list[str] = []
                add = out.append
                for (row, _, unary_u), (_, b, unary_v) in zip(codes, codes):
                    add(top[row + b])
                    add(unary_u)
                    add(unary_v)
                return pack_bits("".join(out))
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
    def _top_strings(self) -> list[str] | None:
        """The top codeword of each residue pair (a, b) as a ``'0'``/``'1'`` string,
        at index a * k + b, or None where the code's longest top codeword is over
        TABLE_BITS bits: at most 2^TABLE_BITS strings."""
        if self._window_bits > TABLE_BITS:
            return None
        strings = []
        for a in range(self.k):
            for b in range(self.k):
                value, length = self._coder(a, b)  # the top codeword and two unary zeros
                strings.append(format(value >> 2, f"0{length - 2}b") if length > 2 else "")
        return strings

    @cached_property
    def _top_table(self) -> dict[str, tuple[int, int, int]] | None:
        """For each TABLE_BITS-bit window, keyed by its string, the whole pair that
        opens it, ``(i, j, length)``, or where the pair's codeword is longer than the
        window, the top codeword that opens it, ``(a, b, -length)``; None where the
        code's longest top codeword is over TABLE_BITS bits.  2^TABLE_BITS entries,
        built on the first decode: each top codeword fills the windows it prefixes,
        and then each of its pairs that fits a window its own part of them."""
        if self._window_bits > TABLE_BITS:
            return None
        k, coder = self.k, self._coder
        table: list = [None] * (1 << TABLE_BITS)
        for a in range(k):
            for b in range(k):
                value, length = coder(a, b)  # the top codeword and two unary zeros
                shift = TABLE_BITS + 2 - length
                table[value >> 2 << shift : ((value >> 2) + 1) << shift] = [
                    (a, b, 2 - length)] * (1 << shift)
                # then each pair of residues (a, b) whose codeword fits: u + v <= shift - 2
                for u in range(shift - 1):
                    for v in range(shift - 1 - u):
                        i, j = a + k * u, b + k * v
                        value, length = coder(i, j)
                        fill = TABLE_BITS - length
                        table[value << fill : (value + 1) << fill] = [(i, j, length)] * (1 << fill)
        return dict(zip(window_keys(TABLE_BITS), table))

    def _decode_run(self, reader: BitReader, count: int) -> list[int]:
        k = self.k
        base, width = self._base, self._window_bits
        # ranks below half lie in signatures 0..k-1, those from it in k..2k-2
        half, last = k * (k + 1) >> 1, k * k - 1
        (limit_1, shift_1, offset_1, length_1), (limit_2, shift_2, offset_2, length_2), (
            _, shift_3, offset_3, length_3) = self._decode_levels
        top, wide, root = self._top_table, TABLE_BITS, isqrt
        bits, pos, nbits = reader.window()
        find = bits.find
        out: list[int] = []
        append = out.append
        for index in range(count):
            while True:
                # the top codeword, or the whole pair, from the top table where
                # the window string holds TABLE_BITS bits from pos; otherwise the
                # top codeword from a left-justified window of the longest
                # length and its level.  The two unary zeros after a shorter
                # codeword keep that window inside the pair's codeword
                end = pos + wide
                if end <= nbits and top:
                    a, b, length = top[bits[pos:end]]
                    if length > 0:  # the whole pair
                        i, j, pos = a, b, pos + length
                        break
                    end = pos - length
                else:
                    end = pos + width
                    if end > nbits:  # a window loaded from pos's byte holds it: its
                        # 64 bits or more hold a top codeword of 2 log2(k) + 1 bits
                        (bits, pos, nbits), _ = reload_pair(reader, pos, index, 0, 0)
                        find = bits.find
                        continue
                    window = int(bits[pos:end], 2) if width else 0
                    if window < limit_1:
                        rank, end = (window >> shift_1) + offset_1, pos + length_1
                    elif window < limit_2:
                        rank, end = (window >> shift_2) + offset_2, pos + length_2
                    else:
                        rank, end = (window >> shift_3) + offset_3, pos + length_3
                    # the signature t of the rank, from t (t + 1) / 2 <= rank, or
                    # from the mirror image of the ranks above half
                    if rank < half:
                        t = (root(8 * rank + 1) - 1) >> 1
                    else:
                        t = 2 * k - 2 - ((root(8 * (last - rank) + 1) - 1) >> 1)
                    a = rank - base[t]
                    b = t - a
                zero_u = find("0", end)
                zero_v = find("0", zero_u + 1) if zero_u >= 0 else -1
                if zero_v >= 0:
                    i, j, pos = a + k * (zero_u - end), b + k * (zero_v - zero_u - 1), zero_v + 1
                    break
                (bits, pos, nbits), found = reload_pair(reader, pos, index, end - pos, 2)
                find = bits.find
                if found:  # the window holds the top codeword
                    i, j = a + k * found[0], b + k * found[1]
                    break
            append(i)
            append(j)
        reader.seek_window(pos)
        return out
