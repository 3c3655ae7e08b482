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

The limit code is the k -> infinity limit: a chain of quasi-uniform
codes of growing size, each hanging off the all-ones leaf of the
previous one.  A pair's order-k codeword stops changing once its
signature lies in the initial regime, so the limit code is the same
canonical code at unbounded order, k = inf, where every signature does:
:class:`LimitCodec` is a :class:`CminusCodec` with that order.
"""

import math
from collections import namedtuple
from functools import cached_property

from .basecodes import PairCodec, exhausted, reload_pair
from .bitio import BitReader


class SignatureLengthRow(namedtuple("SignatureLengthRow", "s lam n_short n_long")):
    """Length distribution of one signature: counts at Lambda and Lambda+1."""

    __slots__ = ()


def signature_row(k: int, s: int) -> tuple[int, int, int, int]:
    """``(Lambda_s, n_short, n_long, D_s)`` of signature s for parameter k.

    Initial regime (s <= 2^(k-1) - 2): write s = 2^i + j - 1 with
    0 <= j < 2^i; then Lambda_s = (s+2)(i+1) - 2^(i+1), with 2^i - j - 1
    short and 2j + 1 long codewords.

    Periodic regime (s >= 2^(k-1) - 1): write
    s = 2^(k-1) - 1 + (2^k - 1) l + j with 0 <= j < 2^k - 1; then
    Lambda_s = (s+2)k - 2^k and n_long depends only on the phase j: it is
    2j + 1, plus 1 at j = 2^(k-1) - 2 and at j = 2^k - 2, less 2^k - 1
    from j = 2^(k-1) - 1 on.  In both regimes n_short = s + 1 - n_long,
    one codeword per pair.

    D_s = 2^Lambda_s - A_s is the Kraft deficit at signature s: A_s is the
    first canonical value at length Lambda_s, so the short block starts at
    A_s and the long block at 2 (A_s + n_short).  It is 2^i in the initial
    regime and 2^k l + (2^(k-1) if j <= 2^(k-1) - 2 else 2^k) in the
    periodic one, a small number beside 2^Lambda_s.  At k = math.inf,
    the limit code's order, every signature is in the initial regime.
    The arguments are not checked; :func:`signature_length_row` is the
    checked form.
    """
    i = (s + 1).bit_length() - 1
    if i < k - 1:  # s <= 2^(k-1) - 2, without building 2^(k-1) for a large k
        j = s + 1 - (1 << i)
        lam = (s + 2) * (i + 1) - (1 << (i + 1))
        n_long, deficit = 2 * j + 1, 1 << i
    else:
        half = 1 << (k - 1)
        full = 2 * half - 1
        ell, j = divmod(s + 1 - half, full)
        lam = (s + 2) * k - (full + 1)
        n_long = 2 * j + 1 + (j == half - 2) + (j == full - 1) - full * (j >= half - 1)
        deficit = (ell << k) + (half if j <= half - 2 else full + 1)
    return lam, s + 1 - n_long, n_long, deficit


def signature_length_row(k: int, s: int) -> SignatureLengthRow:
    """Base length and short/long codeword counts for signature s, order k
    (the regimes are described in :func:`signature_row`)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if s < 0:
        raise ValueError("signature must be >= 0")
    lam, n_short, n_long, _ = signature_row(k, s)
    assert n_short + n_long == s + 1
    return SignatureLengthRow(s, lam, n_short, n_long)


def _lowest_signature(k: int, u: int) -> int:
    """Smallest signature s with Lambda_s >= u, for u >= 0.

    Lambda_s is linear in s with slope i + 1 on the initial-regime class
    s in [2^i - 1, 2^(i+1) - 2], which ends at Lambda = i 2^(i+1), and with
    slope k on the periodic regime, so inverting it is a ceiling division.
    k may be math.inf, the limit code's order, whose regime is all initial.
    """
    i = 0  # i = k - 1 for a u beyond the initial regime's last Lambda, (k - 2) 2^(k-1)
    while i < k - 1 and i << (i + 1) < u:
        i += 1
    return max((1 << i) - 1, -(-(u + (2 << i)) // (i + 1)) - 2)


# signatures whose rows a codec computes once, on its first encode or decode:
# nearly every pair at the design points falls below it, and the memo halves
# the cost of coding those pairs (cminus k=2 at q = 1/4, 40k pairs, CPython
# 3.11 on a shared 2-vCPU VM: decode 72 -> 35 ms, encode 48 -> 27 ms); past
# it each pair calls signature_row
_MEMO_SIGNATURES = 256


class CminusCodec(PairCodec):
    """Canonical pair codec for parameter k >= 2, or k = math.inf for the
    limit code (:class:`LimitCodec`), in O(1) state.

    Every codeword value comes from :func:`signature_row` in closed form:
    the Kraft deficit D_s gives a signature's first canonical values, so
    nothing is allocated signature by signature.  The rows of the first
    ``_MEMO_SIGNATURES`` signatures are computed once, on first coding use,
    and never change, so a codec is immutable and shareable.
    :meth:`signature_lengths`, which the ``lengths`` command prints, does
    not build them.
    """

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError("k must be >= 2")
        self.k = k
        rows = ()  # self._rows, bound on first use

        def coder(i: int, j: int) -> tuple[int, int]:
            nonlocal rows
            if i < 0 or j < 0:
                raise ValueError("pair components must be >= 0")
            s = i + j
            if s < _MEMO_SIGNATURES:
                try:
                    lam, n_short, _, deficit = rows[s]
                except IndexError:  # the first use; the try costs nothing after it
                    rows = self._rows
                    lam, n_short, _, deficit = rows[s]
            else:
                lam, n_short, _, deficit = signature_row(k, s)
            first_short = (1 << lam) - deficit
            if i < n_short:
                return first_short + i, lam
            return ((first_short + n_short) << 1) + (i - n_short), lam + 1

        self._coder = coder

    @cached_property
    def _rows(self) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(signature_row(self.k, s) for s in range(_MEMO_SIGNATURES))

    @cached_property
    def _run_starts(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """``(s, Lambda_s, n_short, n_long, v)`` for each run of u ones up to the
        memo's last Lambda: s is the lowest signature with Lambda_s >= u, and
        v = 2 (D_s - n_short) - 2^(Lambda_s - u + 1) is the v of
        :meth:`_decode_run` before the Lambda_s - u bits after the run's zero."""
        starts: list[tuple[int, int, int, int, int]] = []
        for s, (lam, n_short, n_long, deficit) in enumerate(self._rows):
            starts += [(s, lam, n_short, n_long, 2 * (deficit - n_short) - (2 << (lam - u)))
                       for u in range(len(starts), lam + 1)]
        return tuple(starts)

    def signature_lengths(self, s: int) -> tuple[tuple[int, int], ...]:
        """The lengths of the s + 1 codewords of the pairs (i, s - i), as
        ``((Lambda_s, n_short), (Lambda_s + 1, n_long))``; a count may be 0."""
        if s < 0:
            raise ValueError("signature must be >= 0")
        lam, n_short, n_long, _ = signature_row(self.k, s)
        return (lam, n_short), (lam + 1, n_long)

    def _decode_run(self, reader: BitReader, count: int) -> list[int]:
        # The code is complete and infinite, so no codeword is all ones: the
        # leading run of u ones ends inside the codeword, which therefore has
        # more than u bits and belongs to a signature s with Lambda_s >= u
        # (Moffat & Turpin's canonical decoding: the leading bits give the
        # length class, no table is walked).  _run_starts gives the lowest
        # such s and v, the value of the pair's first Lambda_s + 1 bits less
        # the first long codeword of s, but for the Lambda_s - u bits after
        # the run's zero.  Below 0, v is a short codeword of s, below n_long a
        # long one; otherwise the codeword lies past s, and the walk moves to
        # s + 1, where v takes the next Lambda_(s+1) - Lambda_s <= log2(s) + 2
        # bits.  Only a few signatures past the first can still hold the
        # codeword.  Past the stream's last bit the window has a closing '1':
        # a short codeword does not depend on the bit after it, and a long one
        # that takes it runs off the end.  The bits after the run, at most
        # log2(s) + 3, fit in a window loaded at its zero.
        k = self.k
        rows = self._rows
        starts = self._run_starts
        runs = len(starts)
        bits, pos, nbits = reader.window()
        ahead = len(bits)
        find = bits.find
        out: list[int] = []
        append = out.append
        long_index = -1  # the pair whose run was read with read_unary
        for index in range(count):
            zero = find("0", pos)
            u = zero - pos
            while True:
                if zero >= 0:
                    if u < runs:
                        s, lam, n_short, n_long, v = starts[u]
                    else:
                        s = _lowest_signature(k, u)
                        lam, n_short, n_long, deficit = signature_row(k, s)
                        v = 2 * (deficit - n_short) - (2 << (lam - u))
                    end = zero + 1 + lam - u
                    if end <= ahead:
                        if lam > u:
                            v += int(bits[zero + 1 : end], 2)
                        while v >= n_long:
                            v -= n_long
                            length = lam
                            s += 1
                            lam, n_short, n_long, _ = (
                                rows[s] if s < _MEMO_SIGNATURES else signature_row(k, s))
                            start, end = end, end + lam - length
                            if end > ahead:
                                break
                            v = (v << (lam - length)) + int(bits[start:end], 2) - 2 * n_short
                        else:
                            if v < 0:
                                i, end = n_short + (v >> 1), end - 1
                                break
                            if end <= nbits:
                                i = n_short + v
                                break
                # the codeword may leave the window string
                if long_index == index:  # the window after the run holds the stream's end
                    raise exhausted(reader, index, first)
                (bits, pos, nbits), found = reload_pair(reader, pos, index, 0, 1)
                if found:  # the rest from a window loaded at the run's zero
                    (u,), long_index = found, index
                    first = reader.bits_consumed - u - 1
                    reader.seek_window(pos - 1)
                    bits, zero, nbits = reader.reload_window()
                else:
                    zero = bits.find("0", pos)
                    u = zero - pos
                ahead = len(bits)
                find = bits.find
            append(i)
            append(s - i)
            pos = end
        reader.seek_window(pos)
        return out


# ---------------------------------------------------------------------------
# Limit code
# ---------------------------------------------------------------------------


def limit_row(s: int) -> SignatureLengthRow:
    """Length distribution of the limit code at signature s.

    With s = 2^t - 1 + r, 0 <= r < 2^t: 2^t - 1 - r pairs get length
    (t-1)(s+2) + 2r + 2 and the other 2r + 1 get one bit more.  This is
    :func:`signature_row`'s initial regime in another form, kept as the
    independent closed form that the limit codec is checked against.
    """
    if s < 0:
        raise ValueError("signature must be >= 0")
    t = (s + 1).bit_length() - 1
    r = s + 1 - (1 << t)
    lam = (t - 1) * (s + 2) + 2 * r + 2
    return SignatureLengthRow(s, lam, (1 << t) - 1 - r, 2 * r + 1)


class LimitCodec(CminusCodec):
    """The limit code: the cminus code at unbounded order, k = inf.

    Every signature lies in the initial regime of :func:`signature_row`,
    so the codec's rows are :func:`limit_row`'s and it codes every pair
    exactly, at any signature.  The container stores the family with
    k = 0; ``self.k`` is the unbounded order.
    """

    def __init__(self) -> None:
        super().__init__(math.inf)
