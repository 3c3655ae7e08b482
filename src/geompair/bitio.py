"""Bit-granular stream I/O with MSB-first bit order.

All codecs in this package produce codewords as ``(value, length)``
ints (wrapped in :class:`Codeword` at the public API) and move them
through a :class:`BitWriter` / :class:`BitReader` pair.  Within each byte
the first bit written occupies the most significant position, so hex
dumps read left to right in transmission order.  The final partial
byte of a finalized stream is padded with zero bits.
"""

from __future__ import annotations

from dataclasses import dataclass


class StreamExhausted(Exception):
    """A read required more bits than the stream holds."""


@dataclass(frozen=True)
class Codeword:
    """A finite bit string: the low ``length`` bits of ``value``, MSB first.

    Leading zeros are significant, e.g. ``Codeword(1, 3)`` is the string
    ``001``.  ``length`` 0 denotes the empty codeword.  ``value`` may be an
    arbitrarily large int, so a single Codeword can carry logically
    unbounded codewords; fixed-width transports can split it into
    fragments of at most 64 bits and concatenation restores it.
    """

    value: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("codeword length must be >= 0")
        if self.value < 0 or self.value >> self.length:
            raise ValueError(
                f"value {self.value} does not fit in {self.length} bits"
            )

    def __add__(self, other: "Codeword") -> "Codeword":
        """Concatenation: bits of ``self`` followed by bits of ``other``."""
        return Codeword(
            (self.value << other.length) | other.value,
            self.length + other.length,
        )

    def __len__(self) -> int:
        return self.length

    def bits(self) -> str:
        """The codeword as a ``'01'`` string (empty for length 0)."""
        return format(self.value, "0{}b".format(self.length)) if self.length else ""

    def fragments(self, width: int = 64):
        """Split into codewords of at most ``width`` bits, in stream order."""
        if width < 1:
            raise ValueError("fragment width must be >= 1")
        out = []
        remaining = self.length
        while remaining > 0:
            take = min(width, remaining)
            remaining -= take
            out.append(Codeword((self.value >> remaining) & ((1 << take) - 1), take))
        return out


# pending bits gathered before the writer flushes them to its buffer: a
# larger accumulator makes every shift dearer, a smaller one flushes more
# often (chosen by timing encode_many over thresholds 8 to 16384)
_FLUSH_BITS = 2048


class BitWriter:
    """Append-only bit sink; grows an internal byte buffer as needed."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0  # pending bits not yet flushed to _buf, MSB-first
        self._nacc = 0  # count of pending bits, below _FLUSH_BITS between calls

    @property
    def bits_written(self) -> int:
        """Total number of bits written so far (padding not included)."""
        return 8 * len(self._buf) + self._nacc

    def write(self, value: int, length: int) -> None:
        """Append the low ``length`` bits of ``value``, MSB first.

        ``length`` may be arbitrarily large; whole bytes are flushed to the
        buffer once at least ``_FLUSH_BITS`` bits are pending.
        """
        if length < 0:
            raise ValueError("length must be >= 0")
        if value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        acc = (self._acc << length) | value
        nacc = self._nacc + length
        if nacc >= _FLUSH_BITS:
            rem = nacc & 7
            self._buf += (acc >> rem).to_bytes(nacc >> 3, "big")
            acc &= (1 << rem) - 1
            nacc = rem
        self._acc = acc
        self._nacc = nacc

    def write_codeword(self, cw: Codeword) -> None:
        self.write(cw.value, cw.length)

    def getvalue(self) -> bytes:
        """Finalized stream: the bits written, zero-padded to a whole byte.

        Non-destructive; the writer stays usable, and a later call
        reflects any additional writes.
        """
        pad = -self._nacc & 7
        return bytes(self._buf) + (self._acc << pad).to_bytes((self._nacc + pad) >> 3, "big")


class BitReader:
    """Reads bits MSB-first from a byte string, tracking exact consumption.

    A window of ``WINDOW_BYTES`` payload bytes is held as a ``'0'``/``'1'``
    string, so slicing, ``int(..., 2)`` and ``str.find`` do the per-bit
    work in C.  The string takes 8 bytes per payload byte, so the window,
    not the whole payload, bounds that cost; it moves on when a read
    reaches its end.
    """

    MAX_READ = 64  # per-call limit; larger reads are the caller's loop
    WINDOW_BYTES = 1 << 16  # at least 9, so one window holds any read

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._total = 8 * len(data)
        self._load(0)

    def _load(self, at: int) -> None:
        """Move the window to the byte holding stream bit ``at`` and read from there."""
        byte = at >> 3
        chunk = self._data[byte : byte + self.WINDOW_BYTES]
        self._base = 8 * byte  # stream position of the window's first bit
        self._bits = format(int.from_bytes(chunk, "big"), f"0{8 * len(chunk)}b") if chunk else ""
        self._nbits = len(self._bits)
        self._pos = at - self._base  # read position within the window

    def _refill(self, n: int) -> None:
        """Move the window so that it holds the next ``n`` bits."""
        remaining = self.bits_remaining
        if n > remaining:
            raise StreamExhausted(f"need {n} bits, only {remaining} remain")
        self._load(self._base + self._pos)

    @property
    def bits_consumed(self) -> int:
        return self._base + self._pos

    @property
    def bits_remaining(self) -> int:
        return self._total - self._base - self._pos

    def read_bits(self, n: int) -> int:
        """Next ``n`` bits as an unsigned int, MSB first.  0 <= n <= 64."""
        if n < 0 or n > self.MAX_READ:
            raise ValueError(f"read size {n} outside [0, {self.MAX_READ}]")
        pos = self._pos
        end = pos + n
        if end > self._nbits:
            self._refill(n)
            pos = self._pos
            end = pos + n
        self._pos = end
        return int(self._bits[pos:end], 2) if n else 0

    def read_bit(self) -> int:
        pos = self._pos
        if pos >= self._nbits:
            self._refill(1)
            pos = self._pos
        self._pos = pos + 1
        return 1 if self._bits[pos] == "1" else 0

    def read_unary(self) -> int:
        """Count of one bits before the next zero bit; consumes both."""
        pos = self._pos
        zero = self._bits.find("0", pos)
        if zero >= 0:
            self._pos = zero + 1
            return zero - pos
        start = self._base + pos
        while zero < 0:
            end = self._base + self._nbits
            if end >= self._total:
                self._load(start)  # leave the reader where it was
                raise StreamExhausted(
                    f"unary run not terminated within the {self._total - start} remaining bits"
                )
            self._load(end)
            zero = self._bits.find("0")
        self._pos = zero + 1
        return self._base + zero - start
