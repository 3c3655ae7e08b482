"""Pair codec for the design points q = 2^(-1/k), k >= 1.

A pair (i, j) is sent as the top codeword for (i mod k, j mod k)
followed by the unary codes of i // k and j // k, in that order on the
wire.  The top code is the canonical fringe-<=2 code of
:class:`geompair.fringe2.TopCode`; for k = 1 it is void and the codec
degenerates to two unary codes, for k = 2 to the uniform 2-bit code on
4 symbols.
"""

from __future__ import annotations

from .basecodes import PairCodec
from .bitio import BitReader
from .fringe2 import TopCode


class CkCodec(PairCodec):
    """Immutable pair codec for parameter k; shareable across streams.

    Its state is O(k), so building it is cheap for any k.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._top = TopCode(k)

    def codeword(self, pair: tuple[int, int]) -> tuple[int, int]:
        i, j = pair
        if i < 0 or j < 0:
            raise ValueError("pair components must be >= 0")
        u, a = divmod(i, self.k)
        v, b = divmod(j, self.k)
        value, length = self._top.codeword(a, b)
        # append u ones and a zero, then v ones and a zero
        value = ((((value + 1) << (u + 1)) - 1) << (v + 1)) - 2
        return value, length + u + v + 2

    def length_of(self, pair: tuple[int, int]) -> int:
        i, j = pair
        u, a = divmod(i, self.k)
        v, b = divmod(j, self.k)
        return self._top.codeword(a, b)[1] + u + v + 2

    def decode(self, reader: BitReader) -> tuple[int, int]:
        a, b = self._top.decode(reader)
        u = reader.read_unary()
        v = reader.read_unary()
        return a + self.k * u, b + self.k * v
