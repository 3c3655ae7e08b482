"""Independent ground truth: Huffman codes for truncated pair alphabets.

The infinite pair alphabet is cut at a maximal signature S chosen so the
discarded probability mass is below a requested fraction; the discarded
part enters as one virtual tail symbol carrying the whole remaining
weight.  An exact Huffman run on this finite source gives a near-optimal
average length (the tail perturbs it by roughly eps times the tail
depth) and a code tree whose shallow region is structurally faithful:
the tests check its two-level and gap structure.

The truncated source has only S + 2 distinct weights: the s + 1 symbols
of signature s each weigh q^s, and the tail is one more symbol.  The
Huffman core therefore works on runs of equal weights, after Moffat and
Turpin, "Efficient construction of minimum-redundancy codes for large
alphabets" (IEEE Trans. IT, 1998): its two-queue merge takes a whole
run at a time, so its cost follows the number of runs, not of symbols.
The merge pass alone yields the average, as the sum of the internal
nodes' weights, and the tail's depth; a backward pass over the items it
took is needed only for the per-run depths, the per-signature lengths.
"""

import bisect
import math
from collections import namedtuple
from itertools import chain, groupby, repeat

from .families import DataError, _check_q


class SourceTooLarge(DataError):
    """Truncated alphabet would need more runs than the configured cap."""


class WeightUnderflow(DataError):
    """Truncation whose smallest weights underflow to 0."""


class EmptySource(ValueError):
    """Huffman run on zero symbols."""


TAIL = -1  # signature label of the virtual tail symbol

DEFAULT_RUN_CAP = 1 << 15  # runs a truncation may keep: S + 2 at signature S, the tail included


def tail_fraction(q: float, s_max: int) -> float:
    """Fraction of the total mass carried by signatures above s_max:
    q^(S+1) ((S+1)(1-q) + 1)."""
    return q ** (s_max + 1) * ((s_max + 1) * (1.0 - q) + 1.0)


class TruncatedSource(namedtuple("TruncatedSource", "q s_max runs tail_weight")):
    """Finite surrogate for the pair alphabet at parameter q.

    ``runs`` lists (weight, signature, count) in non-increasing weight
    order.  Weights are unnormalized (the full alphabet totals
    1/(1-q)^2): signature s is s + 1 symbols of weight q^s, and the tail
    (signature -1, weight ``tail_weight``) is one symbol, placed after
    every run of at least its weight.  ``weights`` expands the runs
    symbol by symbol, (S + 1)(S + 2)/2 + 1 floats.
    """

    __slots__ = ()

    @property
    def weights(self) -> list[float]:
        return list(chain.from_iterable(repeat(w, c) for w, _, c in self.runs))


def build_truncated_source(
    q: float, eps: float, cap: int = DEFAULT_RUN_CAP
) -> TruncatedSource:
    """Smallest truncation whose tail mass fraction is below eps, in at most ``cap`` runs."""
    _check_q(q)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    s_max = 0  # the cap also bounds this loop as q nears 1
    while s_max + 2 <= cap and tail_fraction(q, s_max) >= eps:
        s_max += 1
    if s_max + 2 > cap:
        raise SourceTooLarge(f"truncation at S={s_max} exceeds cap of {cap} runs")
    runs = [(q**s, s, s + 1) for s in range(s_max + 1)]
    tail = tail_fraction(q, s_max) / (1.0 - q) ** 2
    if not (runs[-1][0] > 0.0 and tail > 0.0):
        raise WeightUnderflow(f"truncation at S={s_max} for q={q} and eps={eps} "
                              "has weights that underflow to 0")
    # weights are already non-increasing; insert the tail keeping order
    pos = bisect.bisect_right(runs, -tail, key=lambda run: -run[0])
    runs.insert(pos, (tail, TAIL, 1))
    return TruncatedSource(q, s_max, tuple(runs), tail)


def _merge_pass(runs: list[tuple[float, int]], tail: int = -1) -> tuple[list, float, int]:
    """Two-queue Huffman merge over runs of equal weights.

    ``runs`` lists (weight, count >= 1) in non-increasing weight order,
    with at least one run.  Leaves are taken in increasing weight order,
    merged nodes queue up in creation order, a leaf wins a tie, and a
    merged weight is the sum of its children.  Returns the taken items,
    which fix the tree; sum(weight * depth), as the sum of the merged
    (internal) nodes' weights, by ``math.fsum`` if a weight is a float
    and exact otherwise; and the depth of the leaf of count-1 run
    ``tail`` (0 if none is given).
    """
    prev = math.inf
    for weight, _ in runs:
        if not weight > 0:
            raise ValueError("weights must be positive")
        if weight > prev:
            raise ValueError("weights must be non-increasing")
        prev = weight
    n = sum(count for _, count in runs)
    leaves = runs[::-1]  # lightest first
    tail_leaf = len(runs) - 1 - tail if tail >= 0 else -1
    # Taken items 2t and 2t + 1 are the children of merged node t (the
    # root is node n - 2), so the order in which items are taken fixes
    # the tree.  All items of the lightest front run are taken together:
    # a node made from them weighs at least as much as they do and joins
    # the back of the merged queue, and a leaf wins a tie.
    merged_weight, merged_count = [], []  # merged runs in creation order
    size = head = first = 0  # queue length, next run to take, its first node id
    taken = []  # a leaf run's index into leaves, or ~count for a merged run
    pending = 0.0  # weight of a taken item still waiting for its sibling
    total = []  # weight * count of the merged nodes made
    holder, depth = n, 0  # once the tail is taken: node it hangs under (>= first), depth
    li = nodes = 0
    next_leaf = leaves[0][0]
    last = n - 1
    while nodes < last:
        if head == size or next_leaf <= merged_weight[head]:
            weight, count = leaves[li]
            taken.append(li)
            if li == tail_leaf:
                holder, depth = nodes, 1
            li += 1
            next_leaf = leaves[li][0] if li < len(leaves) else math.inf
        else:
            weight, count = merged_weight[head], merged_count[head]
            taken.append(~count)
            if holder < first + count:
                # counting a pending item as item 0, item p pairs into node nodes + p // 2
                holder = nodes + (holder - first + (pending > 0)) // 2
                depth += 1
            head += 1
            first += count
        if pending:
            node_weight = pending + weight
            total.append(node_weight)
            if head < size and merged_weight[-1] == node_weight:
                merged_count[-1] += 1
            else:
                merged_weight.append(node_weight)
                merged_count.append(1)
                size += 1
            nodes += 1
            count -= 1
        pairs = count >> 1
        if pairs:
            node_weight = weight + weight
            total.append(node_weight * pairs)
            if head < size and merged_weight[-1] == node_weight:
                merged_count[-1] += pairs
            else:
                merged_weight.append(node_weight)
                merged_count.append(pairs)
                size += 1
            nodes += pairs
        pending = weight if count & 1 else 0.0
    exact = not any(isinstance(weight, float) for weight, _ in runs)
    return taken, sum(total) if exact else math.fsum(total), depth


def _depth_pass(runs: list[tuple[float, int]], taken: list[int]) -> list[list[tuple[int, int]]]:
    """For each of ``runs``, (depth, count) pairs in increasing depth, from
    the items ``_merge_pass`` took; only the per-run depths need this pass."""
    counts = [count for _, count in reversed(runs)]  # as indexed in taken
    n = sum(counts)
    if n == 1:
        return [[(0, 1)]]
    # The parent of taken position p is node p // 2, and a node's depth
    # does not increase with its index, so merged depths are kept as
    # steps (lowest node, depth) from the root down, and a run of taken
    # positions meets few steps.
    step_lo = [n - 2]
    step_depth = [0]
    k = 0
    depths: list[list[tuple[int, int]]] = [[] for _ in runs]
    end = 2 * n - 2  # taken positions are 0 .. 2n - 3
    node = n - 2  # merged nodes below this one have no depth yet
    for index in reversed(taken):
        count = counts[index] if index >= 0 else ~index
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


def huffman_lengths(weights) -> list[int]:
    """Optimal prefix-code lengths for non-increasing positive weights.

    Adjacent equal weights (as floats) form one run of the run-length
    core; inside a run the shorter lengths come first, so the lengths are
    non-decreasing.  The code is that of the two-queue construction
    (see ``_merge_pass``).  A single symbol gets length 0.
    """
    runs = [(w, len(list(group))) for w, group in groupby(map(float, weights))]
    if not runs:
        raise EmptySource("no weights")
    run_depths = _depth_pass(runs, _merge_pass(runs)[0])
    return list(chain.from_iterable(repeat(d, c) for run in run_depths for d, c in run))


class OracleCode:
    """A Huffman run on a truncated source, as depth counts per run.

    ``run_depths[i]`` lists (depth, count) for ``source.runs[i]`` in
    increasing depth.
    """

    def __init__(self, source: TruncatedSource, run_depths: list[list[tuple[int, int]]],
                 avg_len_pair: float, uncertainty: float, tail_depth: int) -> None:
        self.source, self.run_depths = source, run_depths
        self.avg_len_pair, self.uncertainty, self.tail_depth = avg_len_pair, uncertainty, tail_depth


def _merge_source(q: float, eps: float, cap: int):
    """Source, (weight, count) runs, taken items, average, uncertainty, tail depth."""
    src = build_truncated_source(q, eps, cap)
    runs = [(w, c) for w, _, c in src.runs]
    tail = [sig for _, sig, _ in src.runs].index(TAIL)
    taken, total, depth = _merge_pass(runs, tail)
    # heuristic, not a proven bound: the tail mass sits eps deep in the tree
    return src, runs, taken, (1.0 - q) ** 2 * total, eps * (depth + 2), depth


def truncated_huffman(q: float, eps: float, cap: int = DEFAULT_RUN_CAP) -> OracleCode:
    src, runs, taken, *stats = _merge_source(q, eps, cap)
    return OracleCode(src, _depth_pass(runs, taken), *stats)


def oracle_optimal_avg_len(
    q: float, eps: float, cap: int = DEFAULT_RUN_CAP
) -> tuple[float, float]:
    """Huffman average on the truncated source and its reported uncertainty."""
    _, _, _, avg, uncertainty, _ = _merge_source(q, eps, cap)
    return avg, uncertainty

