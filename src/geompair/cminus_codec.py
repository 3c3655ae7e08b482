"""Pair codecs for the design points q = 2^(-k), k >= 2, and their limit.

Each signature s = i + j owns s + 1 pairs.  For parameter k the code
assigns every signature a base length Lambda_s; n_short of its pairs get
Lambda_s bits and the remaining n_long get Lambda_s + 1.  The counts
follow two regimes: an initial doubling regime for s <= 2^(k-1) - 2 and
a periodic regime (period 2^k - 1) afterwards.  We realize the unique
canonical prefix code with exactly this length multiset: enumerating
signatures in increasing order (short block before long block within a
signature) the lengths are nondecreasing, so codeword values are simply
allocated in numeric order.  The emitted bits therefore differ from any
particular tree drawing, but the length of every codeword, and hence
optimality, is preserved.

The limit codec is the k -> infinity limit: a chain of quasi-uniform
codes of growing size, each hanging off the all-ones leaf of the
previous one.  Its codeword for a pair stabilizes once k exceeds a
threshold depending on the signature, so it agrees with every order-k
code on the initial regime.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .basecodes import PairCodec, quasi_uniform_codeword, quasi_uniform_shape
from .bitio import BitReader, Codeword


@dataclass(frozen=True)
class SignatureLengthRow:
    """Length distribution of one signature: counts at Lambda and Lambda+1."""

    s: int
    lam: int
    n_short: int
    n_long: int

    def total_pairs(self) -> int:
        return self.n_short + self.n_long


def signature_length_row(k: int, s: int) -> SignatureLengthRow:
    """Base length and short/long codeword counts for signature s, order k.

    Initial regime (s <= 2^(k-1) - 2): write s = 2^i + j - 1 with
    0 <= j < 2^i; then Lambda_s = (s+2)(i+1) - 2^(i+1), with 2^i - j - 1
    short and 2j + 1 long codewords.

    Periodic regime (s >= 2^(k-1) - 1): write
    s = 2^(k-1) - 1 + (2^k - 1) l + j with 0 <= j < 2^k - 1; then
    Lambda_s = (s+2)k - 2^k and the counts cycle through five phases in
    j.  In every phase the counts sum to s + 1, one codeword per pair.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if s < 0:
        raise ValueError("signature must be >= 0")
    half = 1 << (k - 1)
    if s <= half - 2:
        i = (s + 1).bit_length() - 1
        j = s + 1 - (1 << i)
        lam = (s + 2) * (i + 1) - (1 << (i + 1))
        return SignatureLengthRow(s, lam, (1 << i) - j - 1, 2 * j + 1)

    full = (1 << k) - 1
    ell, j = divmod(s - (half - 1), full)
    lam = (s + 2) * k - (full + 1)
    base = full * ell
    if j <= half - 3:
        n_short, n_long = base + half - j - 1, 2 * j + 1
    elif j == half - 2:
        n_short, n_long = base, 2 * half - 2
    elif j <= full - 3:
        n_short, n_long = base + 3 * half - 2 - j, 2 * j + 2 - 2 * half
    elif j == full - 2:
        n_short, n_long = base + half + 1, 2 * half - 4
    else:  # j == full - 1
        n_short, n_long = base + half - 1, full
    row = SignatureLengthRow(s, lam, n_short, n_long)
    assert row.total_pairs() == s + 1
    return row


class CminusCodec(PairCodec):
    """Canonical pair codec for parameter k >= 2.

    Keeps a per-signature allocation table (first canonical value of the
    short and long blocks), grown lazily; encoding a pair of signature s
    is then O(1) after the table covers s.
    """

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError("k must be >= 2")
        self.k = k
        # per signature: (lam, n_short, n_long, first_short, first_long)
        self._rows: list[tuple[int, int, int, int, int]] = []
        self._next_value = 0
        self._next_length = 0
        self._grow_lock = threading.Lock()

    def _row(self, s: int) -> tuple[int, int, int, int, int]:
        if s < len(self._rows):
            return self._rows[s]
        with self._grow_lock:
            while len(self._rows) <= s:
                cur = len(self._rows)
                row = signature_length_row(self.k, cur)
                firsts = []
                for length, count in (
                    (row.lam, row.n_short),
                    (row.lam + 1, row.n_long),
                ):
                    if count == 0:
                        firsts.append(-1)
                        continue
                    if length < self._next_length:
                        raise AssertionError(
                            f"length sequence decreases at signature {cur}"
                        )
                    self._next_value <<= length - self._next_length
                    self._next_length = length
                    firsts.append(self._next_value)
                    self._next_value += count
                self._rows.append((row.lam, row.n_short, row.n_long, *firsts))
        return self._rows[s]

    def codeword(self, pair: tuple[int, int]) -> tuple[int, int]:
        i, j = pair
        if i < 0 or j < 0:
            raise ValueError("pair components must be >= 0")
        s = i + j
        lam, n_short, _, first_short, first_long = self._row(s)
        if i < n_short:
            return first_short + i, lam
        return first_long + (i - n_short), lam + 1

    def decode(self, reader: BitReader) -> tuple[int, int]:
        # Walks the canonical blocks tracking rel = window value minus the
        # block's first codeword value.  Between consecutive blocks the
        # allocation pointer advances with the window, so rel stays small
        # (at most the Kraft gap scaled by one block step) even though the
        # window itself grows to thousands of bits.
        rel = 0
        length = 0
        s = 0
        rows = self._rows
        read_bits = reader.read_bits
        read_bit = reader.read_bit
        while True:
            if s >= len(rows):
                self._row(s)
            lam, n_short, n_long, _, _ = rows[s]
            need = lam - length
            while need > 0:
                take = need if need < 64 else 64
                rel = (rel << take) | read_bits(take)
                need -= take
            length = lam
            if rel < n_short:
                return rel, s - rel
            rel -= n_short
            if n_long:
                rel = (rel << 1) | read_bit()
                length += 1
                if rel < n_long:
                    i = n_short + rel
                    return i, s - i
                rel -= n_long
            s += 1


# ---------------------------------------------------------------------------
# Limit code
# ---------------------------------------------------------------------------


def limit_row(s: int) -> SignatureLengthRow:
    """Length distribution of the limit code at signature s.

    With s = 2^t - 1 + r, 0 <= r < 2^t: 2^t - 1 - r pairs get length
    (t-1)(s+2) + 2r + 2 and the other 2r + 1 get one bit more.
    """
    if s < 0:
        raise ValueError("signature must be >= 0")
    t = (s + 1).bit_length() - 1
    r = s + 1 - (1 << t)
    lam = (t - 1) * (s + 2) + 2 * r + 2
    return SignatureLengthRow(s, lam, (1 << t) - 1 - r, 2 * r + 1)


def _limit_run(s: int) -> int:
    """Ones that lead to signature s's block: (t-1)(s+1) + 2r + 1 for
    s = 2^t - 1 + r, 0 <= r < 2^t (zero for s = 0)."""
    t = (s + 1).bit_length() - 1
    r = s + 1 - (1 << t)
    return (t - 1) * (s + 1) + 2 * r + 1


def limit_codeword(pair: tuple[int, int]) -> tuple[int, int]:
    """Limit codeword as ``(value, length)``: all-ones descent to the
    signature's block, then the rank inside a quasi-uniform code on s + 2
    symbols.

    The descent is :func:`_limit_run` ones; rank i takes the i-th of the
    s + 2 canonical quasi-uniform codewords, the all-ones one staying
    reserved as the root of the next signature's block.
    """
    i, j = pair
    if i < 0 or j < 0:
        raise ValueError("pair components must be >= 0")
    s = i + j
    run = _limit_run(s)
    value, length = quasi_uniform_codeword(s + 2, i)
    return (((1 << run) - 1) << length) | value, run + length


def limit_encode(pair: tuple[int, int]) -> Codeword:
    """:func:`limit_codeword` as a :class:`Codeword`."""
    return Codeword(*limit_codeword(pair))


def limit_decode(reader: BitReader) -> tuple[int, int]:
    """Inverse of :func:`limit_encode`.

    Only the reserved rank of a block is all ones, so the run of ones
    that opens a codeword is the descent to signature s plus fewer than
    m = ceil(log2(s + 2)) leading ones of the block codeword, and the
    descent to s + 1 is exactly m ones longer.  A binary search on the
    descent length therefore finds s from the run; the ones past the
    descent and the zero that ended the run are the block codeword's
    first bits.  This consumes exactly one codeword; a truncated stream
    raises StreamExhausted.
    """
    ones = reader.read_unary()
    lo, hi = 0, ones  # the descent to s is at least s ones long
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if _limit_run(mid) <= ones:
            lo = mid
        else:
            hi = mid - 1
    s = lo
    m, short_count = quasi_uniform_shape(s + 2)
    known = ones - _limit_run(s) + 1  # block codeword bits read so far
    value = (1 << known) - 2
    if known < m:  # the first m - 1 bits tell a short codeword from a long one
        rest = m - 1 - known
        value = (value << rest) | reader.read_bits(rest)
        if value < short_count:
            return value, s - value
        value = (value << 1) | reader.read_bit()
    rank = value - short_count
    return rank, s - rank


class LimitCodec(PairCodec):
    """Stateless pair codec facade for the limit code."""

    k = 0

    def codeword(self, pair: tuple[int, int]) -> tuple[int, int]:
        return limit_codeword(pair)

    def decode(self, reader: BitReader) -> tuple[int, int]:
        return limit_decode(reader)
