"""Prefix codes for pairs of independent geometrically distributed integers.

Encoders and decoders for the optimal pair codes at the design points
q = 2^(-1/k) and q = 2^(-k), the limit code for q -> 0, and Golomb
baselines, together with analysis tools (entropy, average lengths,
redundancy asymptotics, crossovers, adaptive selection) and a
truncated-Huffman optimality oracle.
"""

from .bitio import BitReader, BitWriter, Codeword, StreamExhausted
from .basecodes import GolombPairCodec
from .ck_codec import CkCodec
from .cminus_codec import CminusCodec, LimitCodec, signature_length_row
from .families import CodeFamily, make_codec
from .fringe2 import (
    fringe2_optimal_range,
    profile_from,
    top_code_params,
    WeightedSource,
)

# The analysis and oracle names load their modules on first use (PEP 562),
# so that the codec path (``geompair encode`` / ``decode``) imports neither.
_LAZY = {
    "adaptive_select": "analysis",
    "asymptotic_redundancy": "analysis",
    "avg_len_by_series": "analysis",
    "avg_len_ck": "analysis",
    "avg_len_limit_closed": "analysis",
    "best_golomb_order": "analysis",
    "crossover": "analysis",
    "entropy_per_symbol": "analysis",
    "build_truncated_source": "oracle",
    "huffman_lengths": "oracle",
    "max_gap": "oracle",
    "oracle_optimal_avg_len": "oracle",
    "two_level_check": "oracle",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "BitReader",
    "BitWriter",
    "CkCodec",
    "CminusCodec",
    "CodeFamily",
    "Codeword",
    "GolombPairCodec",
    "LimitCodec",
    "StreamExhausted",
    "WeightedSource",
    "adaptive_select",
    "asymptotic_redundancy",
    "avg_len_by_series",
    "avg_len_ck",
    "avg_len_limit_closed",
    "best_golomb_order",
    "build_truncated_source",
    "crossover",
    "entropy_per_symbol",
    "fringe2_optimal_range",
    "huffman_lengths",
    "make_codec",
    "max_gap",
    "oracle_optimal_avg_len",
    "profile_from",
    "signature_length_row",
    "top_code_params",
    "two_level_check",
]
