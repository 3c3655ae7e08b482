"""Code-family descriptors and the codec registry.

A :class:`CodeFamily` names one concrete pair code: ``ck`` with k >= 1
(design points q = 2^(-1/k)), ``cminus`` with k >= 2 (design points
q = 2^(-k)), ``limit`` (the k -> infinity limit of cminus), or
``golomb`` with k >= 1 (order-k Golomb code applied to each component).
"""

import operator
from collections import namedtuple
from functools import lru_cache

# wire identifiers used in the container header
FAMILY_BYTES = {"ck": 1, "cminus": 2, "limit": 3, "golomb": 4}
FAMILY_KINDS = tuple(FAMILY_BYTES)
FAMILY_FROM_BYTE = {v: n for n, v in FAMILY_BYTES.items()}
K_MAX = 0xFFFF  # the header's uint16 k


class DataError(Exception):
    """Bad outside input, refused: the CLI prints any of these as one
    ``geompair:`` line and exits 2, so a new refusal needs no CLI change."""


class InvalidFamilyParam(ValueError, DataError):
    """Family/parameter combination outside its valid domain."""


class QOutOfRange(ValueError, DataError):
    """Parameter q outside the open interval (0, 1)."""


def _check_q(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise QOutOfRange(f"q={q} outside (0, 1)")


class CodeFamily(namedtuple("CodeFamily", "kind k")):
    """One concrete pair code: a family kind and its parameter k."""

    __slots__ = ()

    def __new__(cls, kind: str, k: int = 0) -> "CodeFamily":
        if kind not in FAMILY_KINDS:
            raise InvalidFamilyParam(f"unknown family {kind!r}")
        try:
            k = operator.index(k)  # a plain int, from an int or a numpy integer
        except TypeError:
            raise InvalidFamilyParam(f"{kind} requires an integer k, got {k!r}") from None
        lo = {"ck": 1, "cminus": 2, "limit": 0, "golomb": 1}[kind]
        if kind == "limit":
            if k != 0:
                raise InvalidFamilyParam("limit family takes no parameter (k = 0)")
        elif k < lo:
            raise InvalidFamilyParam(f"{kind} requires k >= {lo}, got {k}")
        return super().__new__(cls, kind, k)

    @classmethod
    def _make(cls, iterable) -> "CodeFamily":  # so that _replace checks too
        return cls(*iterable)

    def label(self) -> str:
        return self.kind if self.kind == "limit" else f"{self.kind} k={self.k}"


@lru_cache(maxsize=32)  # bounded: k comes from container headers
def make_codec(family: CodeFamily):
    """Pair codec (encode / encode_to / encode_many / encode_tokens / decode /
    decode_text) for the family.

    Codecs are cached and safe to share: what they code never changes
    after construction, and the memo and tables each builds on first use
    have a fixed size, not growing with the pairs it codes.  Only the
    module of the family's codec is imported.
    """
    if family.kind == "ck":
        from .ck_codec import CkCodec

        return CkCodec(family.k)
    if family.kind == "golomb":
        from .basecodes import GolombPairCodec

        return GolombPairCodec(family.k)
    from .cminus_codec import CminusCodec, LimitCodec

    return CminusCodec(family.k) if family.kind == "cminus" else LimitCodec()
