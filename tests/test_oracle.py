"""The truncated-Huffman oracle.

``ref_huffman_lengths`` and ``ref_truncated_source`` are the package's
original oracle: a per-symbol two-queue loop over numpy arrays, and the
per-symbol source it ran on.  They are kept here as the reference for
the run-length core, which must build the same code.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest
from reference_theory import avg_len_ck_design, gap_bound, lengths_by_signature, max_gap, two_level_check

from geompair.analysis import avg_len_by_series
from geompair.cminus_codec import CminusCodec
from geompair.oracle import (
    EmptySource,
    SourceTooLarge,
    TAIL,
    DEFAULT_SYMBOL_CAP,
    build_truncated_source,
    huffman_lengths,
    oracle_optimal_avg_len,
    tail_fraction,
    truncated_huffman,
)
from geompair.oracle import _depth_pass, _merge_pass


def symbol_signatures(source):
    """The signature of each symbol, aligned with ``source.weights``."""
    return [sig for _, sig, count in source.runs for _ in range(count)]


def symbol_lengths(code):
    """The codeword length of each symbol, aligned with ``code.source.weights``."""
    return [d for depths in code.run_depths for d, c in depths for _ in range(c)]


def test_truncation_sizes():
    src = build_truncated_source(0.5, 1e-9)
    assert 34 <= src.s_max <= 38
    assert 600 <= len(src.weights) <= 800
    src = build_truncated_source(0.9, 1e-9)
    assert 200 <= src.s_max <= 300
    assert 20_000 <= len(src.weights) <= 45_000


def test_truncation_tail_bound_is_minimal():
    src = build_truncated_source(0.5, 1e-9)
    assert tail_fraction(0.5, src.s_max) < 1e-9
    assert tail_fraction(0.5, src.s_max - 1) >= 1e-9


def test_truncation_validation():
    with pytest.raises(ValueError):
        build_truncated_source(0.5, 1.0)
    with pytest.raises(SourceTooLarge):
        build_truncated_source(0.95, 1e-12, cap=10_000)


def test_source_is_sorted_with_tail_marker():
    src = build_truncated_source(0.8, 1e-6)
    w = src.weights
    assert all(a >= b for a, b in zip(w, w[1:]))
    assert symbol_signatures(src).count(TAIL) == 1
    mults = Counter(symbol_signatures(src))
    for s in range(src.s_max + 1):
        assert mults[s] == s + 1


def test_huffman_textbook_instance():
    assert huffman_lengths([0.4, 0.3, 0.2, 0.1]) == [1, 2, 3, 3]


def test_huffman_uniform_dyadic():
    assert huffman_lengths([1.0] * 16) == [4] * 16


def test_huffman_edge_cases():
    assert huffman_lengths([1.0]) == [0]
    with pytest.raises(EmptySource):
        huffman_lengths([])
    with pytest.raises(ValueError):
        huffman_lengths([0.1, 0.4])
    with pytest.raises(ValueError):
        huffman_lengths([0.4, -0.1])


def test_huffman_kraft_exact():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 400))
        w = np.sort(rng.random(n) + 1e-3)[::-1]
        lengths = huffman_lengths(w)
        top = max(lengths)
        assert sum(1 << (top - l) for l in lengths) == 1 << top


def test_huffman_deterministic():
    w = build_truncated_source(0.6, 1e-8).weights
    assert huffman_lengths(w) == huffman_lengths(w)


def test_huffman_n19_worked_example():
    w = [4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1]
    lengths = huffman_lengths(w)
    assert float(np.dot(w, lengths)) == 206.0
    profile = Counter(lengths)
    plateau = [
        {3: 1, 4: 10, 5: 8},
        {4: 13, 5: 6},
        {4: 14, 5: 3, 6: 2},
    ]
    assert dict(profile) in plateau


def test_oracle_dyadic_point():
    est, unc = oracle_optimal_avg_len(0.5, 1e-9)
    assert abs(est - 4.0) < 1e-6
    assert 0 < unc < 1e-6


@pytest.mark.parametrize("k", [2, 3, 4])
def test_oracle_matches_design_families(k):
    est, _ = oracle_optimal_avg_len(2 ** (-1 / k), 1e-9)
    assert abs(est - avg_len_ck_design(k)) < 1e-3
    est, _ = oracle_optimal_avg_len(2.0**-k, 1e-9)
    series = avg_len_by_series(CminusCodec(k), 2.0**-k, 1e-10)
    assert abs(est - series) < 1e-3


def test_two_level_check_passes_on_oracle_output():
    code = truncated_huffman(0.5, 1e-9)
    ok, witnesses = two_level_check(lengths_by_signature(code), code.source.s_max // 2)
    assert ok and not witnesses


def test_two_level_check_negative_control():
    by_sig = {0: [1], 1: [2, 4], 2: [4, 4, 5]}
    ok, witnesses = two_level_check(by_sig, 2)
    assert not ok and witnesses == [1]


def test_max_gap_examples():
    for q, expected in [(0.5, 0), (0.6, 0)]:
        code = truncated_huffman(q, 1e-9)
        assert max_gap(lengths_by_signature(code), code.source.s_max // 2) == expected
    code = truncated_huffman(0.25, 1e-9)
    g = max_gap(lengths_by_signature(code), code.source.s_max // 2)
    assert g <= gap_bound(0.25) == 2


def test_max_gap_synthetic():
    by_sig = {0: [1], 1: [4, 5], 2: [5, 6]}
    assert max_gap(by_sig, 2) == 0
    assert max_gap({0: [1], 1: [2], 2: [6]}, 2) == 3


# ---------------------------------------------------------------------------
# Differential test against the original per-symbol oracle
# ---------------------------------------------------------------------------


def ref_huffman_lengths(weights):
    w = np.asarray(weights, dtype=np.float64)
    n = len(w)
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


def ref_truncated_source(q, eps):
    """(weights, signatures) of the original per-symbol source."""
    s_max = build_truncated_source(q, eps).s_max
    sigs = np.repeat(np.arange(s_max + 1), np.arange(1, s_max + 2))
    weights = q ** sigs.astype(np.float64)
    tail = tail_fraction(q, s_max) / (1.0 - q) ** 2
    pos = int(np.searchsorted(-weights, -tail, side="right"))
    return np.insert(weights, pos, tail), np.insert(sigs, pos, TAIL)


def _random_weight_vectors(count):
    rng = np.random.default_rng(2024)
    for trial in range(count):
        n = int(rng.integers(1, 300))
        kind = trial % 4
        if kind == 0:  # few distinct integers: long runs, many ties with sums
            w = rng.integers(1, int(rng.integers(2, 40)), size=n).astype(float)
        elif kind == 1:  # dyadic weights: merged sums tie with leaves
            w = 2.0 ** -rng.integers(0, 12, size=n).astype(float)
        elif kind == 2:  # continuous weights with a few repeats
            w = rng.random(n) + 1e-3
            w[rng.integers(0, n, size=n // 4)] = w[0]
        else:  # geometric runs, as in the pair source
            q = float(rng.uniform(0.05, 0.95))
            w = q ** rng.integers(0, 30, size=n).astype(float)
        yield np.sort(w)[::-1]


def test_huffman_lengths_match_reference_on_random_vectors():
    for w in _random_weight_vectors(1200):
        assert huffman_lengths(w) == ref_huffman_lengths(w).tolist(), w.tolist()


@pytest.mark.parametrize(
    "weights",
    [[1.0], [3.0] * 7, [1.0] * 16, [0.4, 0.3, 0.2, 0.1],
     [4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1]],
)
def test_huffman_lengths_match_reference_on_small_instances(weights):
    assert huffman_lengths(weights) == ref_huffman_lengths(weights).tolist()


def test_huffman_lengths_are_non_decreasing():
    for w in _random_weight_vectors(200):
        assert np.all(np.diff(huffman_lengths(w)) >= 0)


@pytest.mark.parametrize(
    "q", [0.05, 0.1, 0.25, 0.3, 0.5, 2 ** -0.5, 0.75, 0.8, 0.9, 0.95]
)
def test_truncated_huffman_matches_reference(q):
    eps = 1e-9
    weights, sigs = ref_truncated_source(q, eps)
    lengths = ref_huffman_lengths(weights)
    ref_by_sig = {}
    for sig, ln in zip(sigs.tolist(), lengths.tolist()):
        ref_by_sig.setdefault(sig, []).append(ln)
    ref_tail_depth = int(lengths[sigs == TAIL][0])
    ref_avg = float((1.0 - q) ** 2 * np.dot(weights, lengths))

    code = truncated_huffman(q, eps)
    by_sig = lengths_by_signature(code)
    assert by_sig.keys() == ref_by_sig.keys()
    for sig, lens in ref_by_sig.items():
        assert Counter(by_sig[sig]) == Counter(lens), sig
    assert code.tail_depth == ref_tail_depth
    assert code.uncertainty == eps * (ref_tail_depth + 2)
    assert math.isclose(code.avg_len_pair, ref_avg, rel_tol=1e-12, abs_tol=0.0)


def test_per_symbol_views_align_with_runs():
    code = truncated_huffman(0.8, 1e-6)
    src = code.source
    weights, sigs, lens = src.weights, symbol_signatures(src), symbol_lengths(code)
    n = sum(c for _, _, c in src.runs)
    assert len(weights) == len(sigs) == len(lens) == n
    assert sigs == ref_truncated_source(0.8, 1e-6)[1].tolist()
    assert float((1.0 - 0.8) ** 2 * np.dot(weights, lens)) == pytest.approx(
        code.avg_len_pair, rel=1e-12
    )
    for sig, by_sig in lengths_by_signature(code).items():
        assert sorted(ln for s, ln in zip(sigs, lens) if s == sig) == by_sig


def test_symbol_cap_counts_symbols_not_runs():
    # q = 0.98 at eps = 1e-9 truncates at S = 1184: 702 706 symbols in 1186 runs
    with pytest.raises(SourceTooLarge):
        build_truncated_source(0.98, 1e-9, cap=700_000)
    src = build_truncated_source(0.98, 1e-9, cap=DEFAULT_SYMBOL_CAP)
    assert src.s_max == 1184
    assert len(src.runs) == src.s_max + 2


def test_symbol_cap_holds_at_the_smallest_truncation():
    # q = 0.01 at eps = 0.9 truncates at S = 0: one symbol besides the tail
    assert build_truncated_source(0.01, 0.9, cap=1).s_max == 0
    with pytest.raises(SourceTooLarge):
        build_truncated_source(0.01, 0.9, cap=0)


def test_oracle_at_q98_is_fast():
    start = time.perf_counter()
    est, unc = oracle_optimal_avg_len(0.98, 1e-9)
    assert time.perf_counter() - start < 0.5  # the per-symbol loop took about 2.5 s
    # the per-symbol oracle's value; only the summation order differs
    assert math.isclose(est, 14.172894635551545, rel_tol=1e-12)
    assert unc == 3.2e-08


# ---------------------------------------------------------------------------
# The merge pass alone against the backward depth pass
# ---------------------------------------------------------------------------


def _depth_weighted_avg(code, q):
    """The average as the backward pass gives it: sum of weight x depth."""
    return (1.0 - q) ** 2 * math.fsum(
        w * (d * c)
        for (w, _, _), depths in zip(code.source.runs, code.run_depths)
        for d, c in depths
    )


AGREEMENT_QS = (
    [round(0.01 * i, 2) for i in range(1, 100)]
    + [2 ** (-1 / k) for k in range(1, 21)]  # ck design points up to q = 0.966
    + [2.0**-k for k in range(1, 7)]  # cminus design points
)


def test_merge_pass_average_and_tail_depth_match_the_depth_pass():
    worst = 0.0
    for q in AGREEMENT_QS:
        for eps in (1e-6, 1e-9, 1e-12):
            code = truncated_huffman(q, eps)
            tail = [sig for _, sig, _ in code.source.runs].index(TAIL)
            assert code.tail_depth == code.run_depths[tail][0][0], (q, eps)
            ref = _depth_weighted_avg(code, q)
            worst = max(worst, abs(code.avg_len_pair - ref) / ref)
            assert oracle_optimal_avg_len(q, eps) == (code.avg_len_pair, code.uncertainty)
    assert worst <= 1e-15


def test_merge_pass_tracks_any_single_leaf_run():
    for w in _random_weight_vectors(300):
        edges = [0, *(np.flatnonzero(w[1:] != w[:-1]) + 1).tolist(), len(w)]
        runs = [(float(w[a]), b - a) for a, b in zip(edges, edges[1:])]
        ref = ref_huffman_lengths(w)
        assert _merge_pass(runs)[2] == 0  # no tail given
        for tail in [i for i, (_, count) in enumerate(runs) if count == 1][:4]:
            taken, total, depth = _merge_pass(runs, tail)
            assert depth == ref[edges[tail]]
            run_depths = _depth_pass(runs, taken)
            assert run_depths[tail] == [(depth, 1)]
            assert math.isclose(total, float(np.dot(w, ref)), rel_tol=1e-12)
