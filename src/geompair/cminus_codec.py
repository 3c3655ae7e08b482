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
optimality, is preserved.  A signature's first canonical values follow in
closed form from its Kraft deficit (:func:`signature_row`), so neither
encoding nor decoding allocates the signatures below it.

The limit codec is the k -> infinity limit: a chain of quasi-uniform
codes of growing size, each hanging off the all-ones leaf of the
previous one.  Its codeword for a pair stabilizes once k exceeds a
threshold depending on the signature, so it agrees with every order-k
code on the initial regime.
"""

from __future__ import annotations

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


def signature_row(k: int, s: int) -> tuple[int, int, int, int]:
    """``(Lambda_s, n_short, n_long, D_s)`` of signature s for parameter k.

    Initial regime (s <= 2^(k-1) - 2): write s = 2^i + j - 1 with
    0 <= j < 2^i; then Lambda_s = (s+2)(i+1) - 2^(i+1), with 2^i - j - 1
    short and 2j + 1 long codewords.

    Periodic regime (s >= 2^(k-1) - 1): write
    s = 2^(k-1) - 1 + (2^k - 1) l + j with 0 <= j < 2^k - 1; then
    Lambda_s = (s+2)k - 2^k and the counts cycle through five phases in
    j.  In every phase the counts sum to s + 1, one codeword per pair.

    D_s = 2^Lambda_s - A_s is the Kraft deficit at signature s: A_s is the
    first canonical value at length Lambda_s, so the short block starts at
    A_s and the long block at 2 (A_s + n_short).  It is 2^i in the initial
    regime and 2^k l + (2^(k-1) if j <= 2^(k-1) - 2 else 2^k) in the
    periodic one, a small number beside 2^Lambda_s.  The arguments are
    not checked; :func:`signature_length_row` is the checked form.
    """
    i = (s + 1).bit_length() - 1
    if i < k - 1:  # s <= 2^(k-1) - 2, without building 2^(k-1) for a large k
        j = s + 1 - (1 << i)
        lam = (s + 2) * (i + 1) - (1 << (i + 1))
        return lam, (1 << i) - j - 1, 2 * j + 1, 1 << i

    half = 1 << (k - 1)
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
    return lam, n_short, n_long, (ell << k) + (half if j <= half - 2 else full + 1)


def signature_length_row(k: int, s: int) -> SignatureLengthRow:
    """Base length and short/long codeword counts for signature s, order k
    (the regimes are described in :func:`signature_row`)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if s < 0:
        raise ValueError("signature must be >= 0")
    lam, n_short, n_long, _ = signature_row(k, s)
    row = SignatureLengthRow(s, lam, n_short, n_long)
    assert row.total_pairs() == s + 1
    return row


def _lowest_signature(k: int, u: int) -> int:
    """Smallest signature s with Lambda_s >= u, for u >= 0.

    Lambda_s is linear in s with slope i + 1 on the initial-regime class
    s in [2^i - 1, 2^(i+1) - 2], which ends at Lambda = i 2^(i+1), and with
    slope k on the periodic regime, so inverting it is a ceiling division.
    """
    if u > (k - 2) << (k - 1):  # beyond the initial regime's last Lambda
        return max((1 << (k - 1)) - 1, -(-(u + (1 << k)) // k) - 2)
    i = 0
    while i << (i + 1) < u:
        i += 1
    return max((1 << i) - 1, -(-(u + (2 << i)) // (i + 1)) - 2)


# signatures whose rows a codec computes once, at construction: nearly every
# pair at the design points falls below it, and the memo halves the cost of
# coding those pairs (cminus k=2 at q = 1/4, 40k pairs, CPython 3.11 on a
# shared 2-vCPU VM: decode 72 -> 35 ms, encode 48 -> 27 ms); past it each
# pair calls signature_row
_MEMO_SIGNATURES = 256


class CminusCodec(PairCodec):
    """Canonical pair codec for parameter k >= 2, in O(1) state.

    Every codeword value comes from :func:`signature_row` in closed form:
    the Kraft deficit D_s gives a signature's first canonical values, so
    nothing is allocated signature by signature.  The rows of the first
    ``_MEMO_SIGNATURES`` signatures are computed once at construction and
    never change, so a codec is immutable and shareable.
    """

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError("k must be >= 2")
        self.k = k
        self._rows = tuple(signature_row(k, s) for s in range(_MEMO_SIGNATURES))
        # the lowest signature s with Lambda_s >= u, for each run of u ones
        # up to the memo's last Lambda
        run_signature: list[int] = []
        for s, (lam, _, _, _) in enumerate(self._rows):
            run_signature += [s] * (lam + 1 - len(run_signature))
        self._run_signature = tuple(run_signature)

    def codeword(self, pair: tuple[int, int]) -> tuple[int, int]:
        i, j = pair
        if i < 0 or j < 0:
            raise ValueError("pair components must be >= 0")
        s = i + j
        try:
            lam, n_short, _, deficit = self._rows[s]
        except IndexError:
            lam, n_short, _, deficit = signature_row(self.k, s)
        first_short = (1 << lam) - deficit
        if i < n_short:
            return first_short + i, lam
        return ((first_short + n_short) << 1) + (i - n_short), lam + 1

    def decode(self, reader: BitReader) -> tuple[int, int]:
        # The code is complete and infinite, so no codeword is all ones: the
        # leading run of u ones ends inside the codeword, which therefore has
        # more than u bits and belongs to a signature s with Lambda_s >= u
        # (Moffat & Turpin's canonical decoding: the leading bits give the
        # length class, no table is walked).  rel tracks the window value
        # minus the current block's first value; it starts below D_s and
        # only a few signatures past s can still hold the codeword.  Every
        # read stays within one step Lambda_s - Lambda_(s-1) <= log2(s) + 2,
        # and s <= u, so it is at most 64 bits for any stream under 2^62 bits.
        u = reader.read_unary()
        rows = self._rows
        try:
            s = self._run_signature[u]
            lam, n_short, n_long, deficit = rows[s]
        except IndexError:
            s = _lowest_signature(self.k, u)
            lam, n_short, n_long, deficit = signature_row(self.k, s)
        if u == lam:
            # the run's zero is bit Lambda + 1: a long codeword of s, or later
            rel = (deficit - 1 - n_short) << 1
        else:
            need = lam - u - 1  # the Lambda-bit window is u ones, a zero, need bits
            rel = deficit - (2 << need) + reader.read_bits(need)
            if rel < n_short:
                return rel, s - rel
            rel = ((rel - n_short) << 1) | reader.read_bit()
        # rel is now relative to s's long block, at Lambda_s + 1 bits; reading
        # that bit when n_long = 0 is safe because Lambda grows by at least 1
        while rel >= n_long:
            rel -= n_long
            length = lam + 1
            s += 1
            try:
                lam, n_short, n_long, _ = rows[s]
            except IndexError:
                lam, n_short, n_long, _ = signature_row(self.k, s)
            rel = (rel << (lam - length)) | reader.read_bits(lam - length)
            if rel < n_short:
                return rel, s - rel
            rel = ((rel - n_short) << 1) | reader.read_bit()
        i = n_short + rel
        return i, s - i


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
