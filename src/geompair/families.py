"""Code-family descriptors and the codec registry.

A :class:`CodeFamily` names one concrete pair code: ``ck`` with k >= 1
(design points q = 2^(-1/k)), ``cminus`` with k >= 2 (design points
q = 2^(-k)), ``limit`` (the k -> infinity limit of cminus), or
``golomb`` with k >= 1 (order-k Golomb code applied to each component).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .basecodes import GolombPairCodec
from .ck_codec import CkCodec
from .cminus_codec import CminusCodec, LimitCodec

FAMILY_KINDS = ("ck", "cminus", "limit", "golomb")

# wire identifiers used in the container header
FAMILY_BYTES = {"ck": 1, "cminus": 2, "limit": 3, "golomb": 4}
FAMILY_FROM_BYTE = {v: n for n, v in FAMILY_BYTES.items()}


class InvalidFamilyParam(ValueError):
    """Family/parameter combination outside its valid domain."""


@dataclass(frozen=True)
class CodeFamily:
    kind: str
    k: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise InvalidFamilyParam(f"unknown family {self.kind!r}")
        lo = {"ck": 1, "cminus": 2, "limit": 0, "golomb": 1}[self.kind]
        if self.kind == "limit":
            if self.k != 0:
                raise InvalidFamilyParam("limit family takes no parameter (k = 0)")
        elif self.k < lo:
            raise InvalidFamilyParam(f"{self.kind} requires k >= {lo}, got {self.k}")

    def label(self) -> str:
        return self.kind if self.kind == "limit" else f"{self.kind} k={self.k}"


@lru_cache(maxsize=32)  # bounded: k comes from container headers
def make_codec(family: CodeFamily):
    """Pair codec (encode / encode_to / encode_many / decode) for the family.

    Codecs are cached and safe to share: none of them changes after
    construction, and each holds state that does not grow with the pairs
    it codes.
    """
    if family.kind == "ck":
        return CkCodec(family.k)
    if family.kind == "cminus":
        return CminusCodec(family.k)
    if family.kind == "limit":
        return LimitCodec()
    return GolombPairCodec(family.k)
