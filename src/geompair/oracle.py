"""Independent ground truth: Huffman codes for truncated pair alphabets.

The infinite pair alphabet is cut at a maximal signature S chosen so the
discarded probability mass is below a requested fraction; the discarded
part enters as one virtual tail symbol carrying the whole remaining
weight.  An exact Huffman run on this finite source gives a near-optimal
average length (the tail perturbs it by roughly eps times the tail
depth) and a code tree whose shallow region is structurally faithful,
which the two-level and gap checks exploit.

numpy is imported inside the functions that use it, so importing the
package or its command line does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .analysis import _check_q

if TYPE_CHECKING:
    import numpy as np


class SourceTooLarge(Exception):
    """Truncated alphabet would exceed the configured symbol cap."""


class EmptySource(ValueError):
    """Huffman run on zero symbols."""


TAIL = -1  # signature label of the virtual tail symbol

DEFAULT_SYMBOL_CAP = 5_000_000


def tail_fraction(q: float, s_max: int) -> float:
    """Fraction of the total mass carried by signatures above s_max:
    q^(S+1) ((S+1)(1-q) + 1)."""
    return q ** (s_max + 1) * ((s_max + 1) * (1.0 - q) + 1.0)


@dataclass
class TruncatedSource:
    """Finite surrogate for the pair alphabet at parameter q.

    ``weights`` are unnormalized (the full alphabet totals 1/(1-q)^2),
    sorted non-increasing; ``signatures`` aligns with ``weights`` and
    labels the tail symbol with -1.
    """

    q: float
    s_max: int
    weights: np.ndarray
    signatures: np.ndarray
    tail_weight: float


def build_truncated_source(
    q: float, eps: float, cap: int = DEFAULT_SYMBOL_CAP
) -> TruncatedSource:
    """Smallest truncation whose tail mass fraction is below eps."""
    import numpy as np

    _check_q(q)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    s_max = 0
    while tail_fraction(q, s_max) >= eps:
        s_max += 1
        if (s_max + 1) * (s_max + 2) // 2 > cap:
            raise SourceTooLarge(
                f"truncation at S={s_max} exceeds cap of {cap} symbols"
            )
    sigs = np.repeat(np.arange(s_max + 1), np.arange(1, s_max + 2))
    weights = q ** sigs.astype(np.float64)
    tail = tail_fraction(q, s_max) / (1.0 - q) ** 2
    # weights are already non-increasing; insert the tail keeping order
    pos = int(np.searchsorted(-weights, -tail, side="right"))
    weights = np.insert(weights, pos, tail)
    sigs = np.insert(sigs, pos, TAIL)
    return TruncatedSource(q, s_max, weights, sigs, tail)


def huffman_lengths(weights) -> np.ndarray:
    """Optimal prefix-code lengths for non-increasing positive weights.

    Two-queue construction: leaves are consumed in increasing weight
    order, merged nodes queue up in creation order, and on equal weight
    the leaf queue is preferred (FIFO within each queue), making the
    result deterministic.  A single symbol gets length 0.
    """
    import numpy as np

    w = np.asarray(weights, dtype=np.float64)
    n = len(w)
    if n == 0:
        raise EmptySource("no weights")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    if np.any(np.diff(w) > 0):
        raise ValueError("weights must be non-increasing")
    if n == 1:
        return np.zeros(1, dtype=np.int64)

    asc = w[::-1]  # leaf queue, lightest first
    merged = np.empty(n - 1, dtype=np.float64)
    parent = np.full(2 * n - 1, -1, dtype=np.int64)  # leaves 0..n-1 ascending
    li = 0
    mhead = 0
    mtail = 0
    for node in range(n - 1):
        children = []
        for _ in range(2):
            take_leaf = li < n and (
                mhead >= mtail or asc[li] <= merged[mhead]
            )
            if take_leaf:
                children.append(li)
                li += 1
            else:
                children.append(n + mhead)
                mhead += 1
        merged[mtail] = sum(
            asc[c] if c < n else merged[c - n] for c in children
        )
        for c in children:
            parent[c] = n + node
        mtail += 1

    depth = np.zeros(2 * n - 1, dtype=np.int64)
    for node in range(2 * n - 3, -1, -1):  # parents are created after children
        depth[node] = depth[parent[node]] + 1
    return depth[:n][::-1].copy()  # back to non-increasing weight order


@dataclass
class OracleCode:
    """A Huffman run on a truncated source, with signature bookkeeping."""

    source: TruncatedSource
    lengths: np.ndarray
    avg_len_pair: float
    uncertainty: float
    lengths_by_signature: dict[int, list[int]] = field(repr=False)


def truncated_huffman(q: float, eps: float, cap: int = DEFAULT_SYMBOL_CAP) -> OracleCode:
    import numpy as np

    src = build_truncated_source(q, eps, cap)
    lengths = huffman_lengths(src.weights)
    avg = float((1.0 - q) ** 2 * np.dot(src.weights, lengths))
    tail_depth = int(lengths[src.signatures == TAIL][0])
    by_sig: dict[int, list[int]] = {}
    for sig, ln in zip(src.signatures.tolist(), lengths.tolist()):
        by_sig.setdefault(sig, []).append(ln)
    # heuristic, not a proven bound: the tail mass sits eps deep in the tree
    uncertainty = eps * (tail_depth + 2)
    return OracleCode(src, lengths, avg, uncertainty, by_sig)


def oracle_optimal_avg_len(
    q: float, eps: float, cap: int = DEFAULT_SYMBOL_CAP
) -> tuple[float, float]:
    """Huffman average on the truncated source and its reported uncertainty."""
    code = truncated_huffman(q, eps, cap)
    return code.avg_len_pair, code.uncertainty


def two_level_check(
    lengths_by_signature: dict[int, list[int]], s_max_checked: int
) -> tuple[bool, list[int]]:
    """Verify every signature's codeword lengths span <= 2 consecutive
    levels; returns (ok, offending signatures)."""
    witnesses = []
    for s in range(s_max_checked + 1):
        lens = lengths_by_signature.get(s)
        if not lens:
            continue
        if max(lens) - min(lens) > 1:
            witnesses.append(s)
    return not witnesses, witnesses


def max_gap(lengths_by_signature: dict[int, list[int]], s_max_checked: int) -> int:
    """Largest run of leaf-free levels between consecutive signatures.

    Measured on the upper half of the checked region (the structural
    statements hold for all sufficiently large signatures, and small
    signatures of a truncated code may be atypical).
    """
    gap = 0
    for s in range(s_max_checked // 2, s_max_checked):
        cur = lengths_by_signature.get(s)
        nxt = lengths_by_signature.get(s + 1)
        if not cur or not nxt:
            continue
        gap = max(gap, min(nxt) - max(cur) - 1)
    return gap


def gap_bound(q: float) -> int:
    """floor(log2(1/q)): asymptotic cap on gap sizes in an optimal tree."""
    return int(math.floor(math.log2(1.0 / q)))
