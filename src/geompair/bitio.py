"""Bit-granular stream I/O with MSB-first bit order.

All codecs in this package produce codewords as ``(value, length)``
ints (wrapped in :class:`Codeword` at the public API) and move them
through a :class:`BitWriter` / :class:`BitReader` pair.  Within each byte
the first bit written occupies the most significant position, so hex
dumps read left to right in transmission order.  The final partial
byte of a finalized stream is padded with zero bits.
"""


class StreamExhausted(Exception):
    """A read required more bits than the stream holds.

    When a codec's ``decode`` or ``decode_text`` raises it, ``pair`` is the
    0-based index of the pair that ran off the end (0 for ``decode``) and
    ``start`` the stream bit where that pair starts, and the message gives
    the bits left from there; both are None for a single read.
    """

    pair = None
    start = None


class Codeword:
    """A finite bit string: the low ``length`` bits of ``value``, MSB first.

    Leading zeros are significant, e.g. ``Codeword(1, 3)`` is the string
    ``001``.  ``length`` 0 denotes the empty codeword.  ``value`` may be an
    arbitrarily large int, so a single Codeword carries a codeword of any
    length, whole; ``+`` concatenates two.  Codewords are immutable,
    compare and hash by ``(value, length)``.
    """

    __slots__ = ("value", "length")

    def __init__(self, value: int, length: int) -> None:
        if length < 0:
            raise ValueError("codeword length must be >= 0")
        if value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "length", length)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: Codeword is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: Codeword is immutable")

    def __eq__(self, other):
        if other.__class__ is not Codeword:
            return NotImplemented
        return self.value == other.value and self.length == other.length

    def __hash__(self) -> int:
        return hash((self.value, self.length))

    def __repr__(self) -> str:
        return f"Codeword(value={self.value!r}, length={self.length!r})"

    def __add__(self, other: "Codeword") -> "Codeword":
        """Concatenation: bits of ``self`` followed by bits of ``other``."""
        return Codeword(
            (self.value << other.length) | other.value,
            self.length + other.length,
        )

    def __len__(self) -> int:
        return self.length


# pending bits gathered before the writer flushes them to its buffer: a
# larger accumulator makes every shift dearer, a smaller one flushes more
# often (chosen by timing encode_many over thresholds 8 to 16384)
FLUSH_BITS = 2048


class BitWriter:
    """Append-only bit sink; grows an internal byte buffer as needed."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0  # pending bits not yet flushed to _buf, MSB-first
        self._nacc = 0  # count of pending bits, below FLUSH_BITS between calls

    @property
    def bits_written(self) -> int:
        """Total number of bits written so far (padding not included)."""
        return 8 * len(self._buf) + self._nacc

    def write(self, value: int, length: int) -> None:
        """Append the low ``length`` bits of ``value``, MSB first.

        ``length`` may be arbitrarily large; whole bytes are flushed to the
        buffer once at least ``FLUSH_BITS`` bits are pending.
        """
        if length < 0:
            raise ValueError("length must be >= 0")
        if value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        acc = (self._acc << length) | value
        nacc = self._nacc + length
        if nacc >= FLUSH_BITS:
            acc, nacc = self.flush(acc, nacc)
        self._acc = acc
        self._nacc = nacc

    def flush(self, acc: int, nacc: int) -> tuple[int, int]:
        """Append the whole bytes of ``acc``, ``nacc`` bits MSB-first, to the
        buffer and return the leftover ``(acc, nacc)``, under 8 bits.

        ``acc`` must hold every bit written since the last flush, as in
        :meth:`write`.  The batch encoders start from a fresh writer, gather
        bits in a local accumulator, flush it here once it reaches
        ``FLUSH_BITS`` bits and :meth:`write` the rest at the end.
        """
        rem = nacc & 7
        self._buf += (acc >> rem).to_bytes(nacc >> 3, "big")
        return acc & ((1 << rem) - 1), rem

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
        last = 1 if byte + self.WINDOW_BYTES >= len(self._data) else 0
        self._base = 8 * byte  # stream position of the window's first bit
        self._nbits = 8 * len(chunk)
        # the last window ends in a '1' past the stream's last bit
        self._bits = format(int.from_bytes(chunk, "big") << last | last, f"0{self._nbits + last}b")
        self._pos = at - self._base  # read position within the window

    def _refill(self, n: int) -> None:
        """Move the window so that it holds the next ``n`` bits."""
        remaining = self.bits_remaining
        if n > remaining:
            raise StreamExhausted(f"need {n} bits, only {remaining} remain")
        self.reload_window()

    @property
    def bits_consumed(self) -> int:
        return self._base + self._pos

    def window(self) -> tuple[str, int, int]:
        """``(bits, pos, nbits)``: the window string, the read position in
        it and the count of stream bits it holds.  A batch decoder scans
        ``bits`` itself and hands its position back with :meth:`seek_window`.

        Where the window holds the rest of the stream, ``bits`` has one more
        character, a ``'1'``: a decoder may look one bit past a codeword
        without a bounds check, and ``find("0")`` never stops there.
        """
        return self._bits, self._pos, self._nbits

    def reload_window(self) -> tuple[str, int, int]:
        """Load the window from the byte holding the read position and
        return :meth:`window`: how a batch decoder goes on with a codeword
        that may leave the window string."""
        self._load(self._base + self._pos)
        return self._bits, self._pos, self._nbits

    def seek_window(self, pos: int) -> None:
        """Move the read position to ``pos`` within the current window."""
        self._pos = pos

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
