"""Independent ground truth: Huffman codes for truncated pair alphabets.

The infinite pair alphabet is cut at a maximal signature S chosen so the
discarded probability mass is below a requested fraction; the discarded
part enters as one virtual tail symbol carrying the whole remaining
weight.  An exact Huffman run on this finite source gives a near-optimal
average length (the tail perturbs it by roughly eps times the tail
depth) and a code tree whose shallow region is structurally faithful,
which the two-level and gap checks exploit.

The truncated source has only S + 2 distinct weights: the s + 1 symbols
of signature s each weigh q^s, and the tail is one more symbol.  The
Huffman core therefore works on runs of equal weights, after Moffat and
Turpin, "Efficient construction of minimum-redundancy codes for large
alphabets" (IEEE Trans. IT, 1998): its two-queue merge takes a whole
run at a time and yields how many leaves of each run sit at each depth,
so its cost follows the number of runs, not of symbols.  The oracle's
averages and per-signature lengths come from those depth counts.

numpy is imported only where per-symbol arrays are built: the
``TruncatedSource.weights`` / ``.signatures`` and ``OracleCode.lengths``
views and ``huffman_lengths``.  ``oracle_optimal_avg_len`` and the
command line do not load it.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True)
class TruncatedSource:
    """Finite surrogate for the pair alphabet at parameter q.

    ``runs`` lists (weight, signature, count) in non-increasing weight
    order.  Weights are unnormalized (the full alphabet totals
    1/(1-q)^2): signature s is s + 1 symbols of weight q^s, and the tail
    (signature -1) is one symbol, placed after every run of at least its
    weight.  ``weights`` and ``signatures`` expand the runs symbol by
    symbol.
    """

    q: float
    s_max: int
    runs: tuple[tuple[float, int, int], ...]
    tail_weight: float

    @property
    def weights(self) -> np.ndarray:
        import numpy as np

        return np.repeat([w for w, _, _ in self.runs], [c for _, _, c in self.runs])

    @property
    def signatures(self) -> np.ndarray:
        import numpy as np

        return np.repeat(
            np.array([s for _, s, _ in self.runs], dtype=np.int64),
            [c for _, _, c in self.runs],
        )


def build_truncated_source(
    q: float, eps: float, cap: int = DEFAULT_SYMBOL_CAP
) -> TruncatedSource:
    """Smallest truncation whose tail mass fraction is below eps."""
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
    runs = [(q**s, s, s + 1) for s in range(s_max + 1)]
    tail = tail_fraction(q, s_max) / (1.0 - q) ** 2
    # weights are already non-increasing; insert the tail keeping order
    pos = bisect.bisect_right(runs, -tail, key=lambda run: -run[0])
    runs.insert(pos, (tail, TAIL, 1))
    return TruncatedSource(q, s_max, tuple(runs), tail)


def _run_depths(runs: list[tuple[float, int]]) -> list[list[tuple[int, int]]]:
    """Huffman leaf depths for runs of equal weights.

    ``runs`` lists (weight, count >= 1) in non-increasing weight order,
    with at least one run.  Returns, for each run, (depth, count) pairs in
    increasing depth.  The tree is that of the two-queue construction:
    leaves are consumed in increasing weight order, merged nodes queue up
    in creation order, on equal weight a leaf is taken first (FIFO
    within each queue), and a merged weight is the float sum of its
    children.  A single symbol gets depth 0.
    """
    prev = math.inf
    for weight, _ in runs:
        if not weight > 0:
            raise ValueError("weights must be positive")
        if weight > prev:
            raise ValueError("weights must be non-increasing")
        prev = weight
    n = sum(count for _, count in runs)
    if n == 1:
        return [[(0, 1)]]
    leaves = runs[::-1]  # lightest first

    # Forward: taken items 2t and 2t + 1 are the children of merged node
    # t (the root is node n - 2), so the order in which items are taken
    # fixes the tree.  All items of the lightest front run are taken
    # together: a node made from them weighs at least as much as they do
    # and joins the back of the merged queue, and a leaf wins a tie.
    merged: deque[list] = deque()  # [weight, count] in creation order
    taken = []  # (index into leaves, or -1 for merged nodes; count)
    pending = 0.0  # weight of a taken item still waiting for its sibling
    li = 0
    nodes = 0
    while nodes < n - 1:
        if li < len(leaves) and (not merged or leaves[li][0] <= merged[0][0]):
            weight, count = leaves[li]
            taken.append((li, count))
            li += 1
        else:
            weight, count = merged.popleft()
            taken.append((-1, count))
        made = []
        if pending:
            made.append((pending + weight, 1))
            count -= 1
        pairs, odd = divmod(count, 2)
        if pairs:
            made.append((weight + weight, pairs))
        pending = weight if odd else 0.0
        for node_weight, node_count in made:
            nodes += node_count
            if merged and merged[-1][0] == node_weight:
                merged[-1][1] += node_count
            else:
                merged.append([node_weight, node_count])

    # Backward: the parent of taken position p is node p // 2, and a
    # node's depth does not increase with its index, so merged depths
    # are kept as steps (lowest node, depth) from the root down, and a
    # run of taken positions meets few steps.
    step_lo = [n - 2]
    step_depth = [0]
    k = 0
    depths: list[list[tuple[int, int]]] = [[] for _ in leaves]
    end = 2 * n - 2  # taken positions are 0 .. 2n - 3
    node = n - 2  # merged nodes below this one have no depth yet
    for index, count in reversed(taken):
        chunks = []  # positions descending, so depth increasing
        lo = end - count
        p = end - 1
        while p >= lo:
            while step_lo[k] > p >> 1:
                k += 1
            first = max(lo, 2 * step_lo[k])
            chunks.append((step_depth[k] + 1, p - first + 1))
            p = first - 1
        end = lo
        if index >= 0:
            depths[index] = chunks
            continue
        for depth, c in chunks:
            node -= c
            if step_depth[-1] == depth:
                step_lo[-1] = node
            else:
                step_lo.append(node)
                step_depth.append(depth)
    return depths[::-1]


def huffman_lengths(weights) -> np.ndarray:
    """Optimal prefix-code lengths for non-increasing positive weights.

    Adjacent equal weights form one run of the run-length core; inside a
    run the shorter lengths come first, so the lengths are
    non-decreasing.  The code is that of the two-queue construction
    (see ``_run_depths``).  A single symbol gets length 0.
    """
    import numpy as np

    w = np.asarray(weights, dtype=np.float64)
    if len(w) == 0:
        raise EmptySource("no weights")
    edges = [0, *(np.flatnonzero(w[1:] != w[:-1]) + 1).tolist(), len(w)]
    runs = [(float(w[a]), b - a) for a, b in zip(edges, edges[1:])]
    return _expand_depths(_run_depths(runs))


def _expand_depths(run_depths: list[list[tuple[int, int]]]) -> np.ndarray:
    """Per-symbol lengths, run by run, from (depth, count) pairs."""
    import numpy as np

    pairs = [pair for run in run_depths for pair in run]
    return np.repeat(
        np.array([d for d, _ in pairs], dtype=np.int64), [c for _, c in pairs]
    )


@dataclass
class OracleCode:
    """A Huffman run on a truncated source, as depth counts per run.

    ``run_depths[i]`` lists (depth, count) for ``source.runs[i]`` in
    increasing depth.  ``lengths`` (aligned with ``source.weights``) and
    ``lengths_by_signature`` (sorted lengths per signature, the tail
    under -1) expand them symbol by symbol.
    """

    source: TruncatedSource
    run_depths: list[list[tuple[int, int]]]
    avg_len_pair: float
    uncertainty: float
    tail_depth: int

    @property
    def lengths(self) -> np.ndarray:
        return _expand_depths(self.run_depths)

    @cached_property
    def lengths_by_signature(self) -> dict[int, list[int]]:
        return {
            sig: [d for d, c in depths for _ in range(c)]
            for (_, sig, _), depths in zip(self.source.runs, self.run_depths)
        }


def truncated_huffman(q: float, eps: float, cap: int = DEFAULT_SYMBOL_CAP) -> OracleCode:
    src = build_truncated_source(q, eps, cap)
    run_depths = _run_depths([(w, c) for w, _, c in src.runs])
    total = math.fsum(
        w * (d * c)
        for (w, _, _), depths in zip(src.runs, run_depths)
        for d, c in depths
    )
    avg = (1.0 - q) ** 2 * total
    tail_depth = next(
        depths[0][0]
        for (_, sig, _), depths in zip(src.runs, run_depths)
        if sig == TAIL
    )
    # heuristic, not a proven bound: the tail mass sits eps deep in the tree
    uncertainty = eps * (tail_depth + 2)
    return OracleCode(src, run_depths, avg, uncertainty, tail_depth)


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
