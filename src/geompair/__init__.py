"""Prefix codes for pairs of independent geometrically distributed integers.

Encoders and decoders for the optimal pair codes at the design points
q = 2^(-1/k) and q = 2^(-k), the limit code for q -> 0, and Golomb
baselines, together with analysis tools (entropy, average lengths,
redundancy asymptotics, crossovers, adaptive selection) and a
truncated-Huffman optimality oracle.
"""

# Every public name loads its module on first use (PEP 562), so that
# ``import geompair`` loads no module of the package and a command loads
# only what it runs: ``decode`` of a cminus container never loads the ck
# codec or the top-code theory, and the codec path never loads the
# analysis or the oracle.
_LAZY = {
    "BitReader": "bitio",
    "BitWriter": "bitio",
    "Codeword": "bitio",
    "StreamExhausted": "bitio",
    "GolombPairCodec": "basecodes",
    "CkCodec": "ck_codec",
    "CminusCodec": "cminus_codec",
    "LimitCodec": "cminus_codec",
    "signature_length_row": "cminus_codec",
    "CodeFamily": "families",
    "make_codec": "families",
    "profile_from": "fringe2",
    "top_code_params": "fringe2",
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
    "oracle_optimal_avg_len": "oracle",
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

__all__ = sorted(_LAZY)
