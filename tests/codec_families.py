"""The code families that the codec tests run over, and the top codeword
of a ck code read from its codec."""

from geompair.families import CodeFamily

FAMILIES = (
    [CodeFamily("ck", k) for k in (1, 2, 3, 16, 255, 256)]
    + [CodeFamily("cminus", k) for k in (2, 3, 4, 10)]
    + [CodeFamily("limit")]
    + [CodeFamily("golomb", k) for k in (1, 2, 3, 7)]
)


def top_codeword(codec, a, b):
    """Top codeword of the residue pair (a, b) of a ``CkCodec``, as
    ``(value, length)``: the codeword of (a, b) less its two unary zeros."""
    value, length = codec.codeword((a, b))
    assert value & 3 == 0
    return value >> 2, length - 2
