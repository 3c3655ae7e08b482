"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single ``criterion NN ... PASS``/``FAIL`` line (visible
with ``pytest -s`` or in captured output on failure).  Expected total
runtime is a few seconds, most of it criterion 7's roundtrips.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from codec_families import assert_decodes, assert_lengths, every_pair
from reference_theory import (
    WeightedSource,
    asymptotic_redundancy,
    avg_len_by_series,
    avg_len_ck_design,
    avg_len_limit_closed,
    fringe2_optimal_range,
    lengths_by_signature,
    max_gap,
    oscillation_extremes,
    profile_average_length,
    two_level_check,
)

from geompair.analysis import (
    avg_len_ck,
    avg_len_cminus,
    best_golomb_order,
    crossover,
    entropy_per_symbol,
    golomb_pair_avg_len,
    redundancy_per_symbol,
)
from geompair.ck_codec import CkCodec
from geompair.cminus_codec import (
    CminusCodec,
    LimitCodec,
    signature_length_row,
)
from geompair.families import CodeFamily
from geompair.fringe2 import top_code_params
from geompair.oracle import _depth_pass, _merge_pass, truncated_huffman


@contextmanager
def criterion(num, text):
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} [{text}]: FAIL")
        raise
    print(f"criterion {num:02d} [{text}]: PASS")


@lru_cache(maxsize=None)
def oracle_at(q, eps=1e-9):
    return truncated_huffman(q, eps)


def rival_avg_lens(q):
    """Average pair lengths at q of the implemented families the oracle
    must not lose to."""
    best = best_golomb_order(q)
    golomb_orders = set(range(1, 9)) | {max(1, best - 1), best, best + 1}
    rivals = [avg_len_ck(q, k) for k in range(1, 65)]
    rivals += [golomb_pair_avg_len(q, k) for k in sorted(golomb_orders)]
    rivals += [avg_len_cminus(q, k) for k in (2, 3, 4, 5, 6, math.inf)]
    return rivals


TABLE_TOP_PARAMS = {
    3: (3, 0, 0, 1, 1, (0, 7, 2)),
    4: (4, 1, 0, 0, 1, (1, 13, 2)),
    5: (5, 3, 1, 0, 0, (7, 18, 0)),
    6: (5, 1, 0, 1, 5, (1, 25, 10)),
    7: (6, 5, 0, 0, 0, (15, 34, 0)),
    8: (6, 2, 2, 0, 5, (5, 49, 10)),
    9: (6, 0, 0, 1, 17, (0, 47, 34)),
    10: (7, 7, 1, 0, 1, (29, 69, 2)),
}


def test_criterion_01_top_code_parameter_table():
    with criterion(1, "top-code parameter table, k = 3..10 plus k = 2"):
        for k, expected in TABLE_TOP_PARAMS.items():
            p = top_code_params(k)
            assert (p.M, p.j, p.r, p.sigma, p.c, p.profile.leaves) == expected
        assert top_code_params(2).profile.leaves == (0, 4, 0)


def test_criterion_02_worked_19_symbol_source():
    with criterion(2, "19-symbol worked example, exact rational"):
        src = WeightedSource([4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1])
        assert fringe2_optimal_range(src) == (1, 4, 0, 1)
        assert profile_average_length(src, 1, 4) == Fraction(206, 49)


def test_criterion_03_closed_form_consistency():
    with criterion(3, "series vs closed form, and both closed forms"):
        for k in range(1, 11):
            for q in (0.3, 0.6, 2 ** (-1 / k), 0.9):
                series = avg_len_by_series(CkCodec(k), q, 1e-10)
                assert abs(series - avg_len_ck(q, k)) <= 1e-9
            a = avg_len_ck(2 ** (-1 / k), k)
            b = avg_len_ck_design(k)
            assert abs(a - b) <= 1e-12 * b
        for codec in [CminusCodec(k) for k in range(2, 11)] + [LimitCodec()]:
            for q in (0.05, 0.3, 2.0 ** -min(codec.k, 60), 0.6, 0.9):
                series = avg_len_by_series(codec, q, 1e-10)
                assert abs(series - avg_len_cminus(q, codec.k)) <= 1e-9
        for q in (0.05, 0.3, 0.6, 0.9):
            a = avg_len_cminus(q, math.inf)
            b = avg_len_limit_closed(q)
            assert abs(a - b) <= 1e-15 * b


def test_criterion_04_zero_redundancy_at_half():
    with criterion(4, "zero redundancy at q = 1/2"):
        assert abs(0.5 * avg_len_ck(0.5, 1) - entropy_per_symbol(0.5)) <= 1e-12


def test_criterion_05_optimality_vs_oracle():
    with criterion(5, "oracle agreement and oracle dominance"):
        design_points = []
        for k in range(2, 7):
            q = 2 ** (-1 / k)
            code = oracle_at(q)
            assert abs(code.avg_len_pair - avg_len_ck_design(k)) <= code.uncertainty
            design_points.append(q)
        for k in (2, 3, 4):
            q = 2.0**-k
            code = oracle_at(q)
            assert abs(code.avg_len_pair - avg_len_cminus(q, k)) <= code.uncertainty
            design_points.append(q)
        # the oracle is a minimum: no implemented family does better
        for q in design_points:
            code = oracle_at(q)
            assert code.avg_len_pair <= min(rival_avg_lens(q)) + code.uncertainty


def test_criterion_06_golomb_pair_strictly_suboptimal():
    with criterion(6, "symbol-by-symbol coding strictly suboptimal"):
        for k in range(3, 11):
            q = 2 ** (-1 / k)
            assert golomb_pair_avg_len(q, k) - avg_len_ck_design(k) > 1e-4


def test_criterion_07_cminus_structure_and_roundtrips():
    with criterion(7, "per-signature structure and codec roundtrips"):
        for k in range(2, 9):
            prev_longest = 0
            kraft = Fraction(0)
            for s in range(513):
                row = signature_length_row(k, s)
                assert row.n_short >= 0 and row.n_long >= 0
                assert row.n_short + row.n_long == s + 1
                lens = []
                if row.n_short:
                    lens.append(row.lam)
                if row.n_long:
                    lens.append(row.lam + 1)
                assert min(lens) >= prev_longest
                prev_longest = max(lens)
                if s <= 128:
                    kraft += row.n_short * Fraction(1, 1 << row.lam)
                    kraft += row.n_long * Fraction(1, 1 << (row.lam + 1))
                    assert kraft < 1
            lam_128 = signature_length_row(k, 128).lam
            assert 0 < 1 - kraft <= 130 * Fraction(1, 1 << lam_128)

            rng = random.Random(1000 + k)
            pairs = [(rng.randint(0, 256), rng.randint(0, 256)) for _ in range(10_000)]
            assert_decodes(CminusCodec(k), pairs)


def test_criterion_08_limit_code():
    with criterion(8, "limit code: roundtrip, distribution, closed form"):
        rng = random.Random(8)
        limit = LimitCodec()
        assert_decodes(limit, [(rng.randint(0, 300), rng.randint(0, 300)) for _ in range(10_000)])
        assert_lengths(CodeFamily("limit"), every_pair(range(257)))

        for q in (0.05, 0.1, 0.2, 0.3):
            series = avg_len_by_series(LimitCodec(), q, 1e-10)
            assert abs(series - avg_len_cminus(q, math.inf)) <= 1e-9

        for k in range(3, 9):
            codec = CminusCodec(k)
            for s in range((1 << (k - 1)) - 1):
                for i in range(s + 1):
                    pair = (i, s - i)
                    assert codec.encode(pair).length == limit.encode(pair).length


def test_criterion_09_crossover_point():
    with criterion(9, "limit-code / unary-pair crossover"):
        q_star = crossover(
            lambda q: avg_len_cminus(q, math.inf), lambda q: avg_len_ck(q, 1), 0.25, 0.45, 1e-5
        )
        assert abs(q_star - 0.33715) <= 5e-5


def test_criterion_10_asymptotic_redundancy():
    with criterion(10, "redundancy oscillation extremes and large k"):
        lo, hi = oscillation_extremes()
        assert abs(lo - 0.014159) <= 1e-5
        assert abs(hi - 0.014583) <= 1e-5
        k = 4096
        q = 2 ** (-1 / k)
        actual = 0.5 * avg_len_ck(q, k) - entropy_per_symbol(q)
        assert abs(actual - asymptotic_redundancy(k)) <= 1e-3


def test_criterion_11_redundancy_advantage_snapshot():
    with criterion(11, "10x redundancy advantage near q = 0.28"):
        for q in (0.27, 0.28, 0.29, 0.30):
            golomb = min(
                redundancy_per_symbol(golomb_pair_avg_len(q, k), q)
                for k in range(1, 5)
            )
            contenders = [
                redundancy_per_symbol(avg_len_cminus(q, k), q)
                for k in [*range(2, 9), math.inf]
            ]
            assert golomb / min(contenders) > 10.0


def test_criterion_12_oracle_tree_structure():
    with criterion(12, "two-level and gap structure of oracle trees"):
        for q in (0.3, 0.5, 2 ** (-1 / 3)):
            code = oracle_at(q)
            ok, witnesses = two_level_check(lengths_by_signature(code), code.source.s_max // 2)
            assert ok, witnesses
        for q in (0.5, 0.6):
            code = oracle_at(q)
            assert max_gap(lengths_by_signature(code), code.source.s_max // 2) == 0


def test_criterion_13_huffman_ground_truth_above_095():
    with criterion(13, "Huffman ground truth above q = 0.95"):
        # ck design points k = 14, 20, 34 (q ~ 0.9517, 0.9659, 0.9798):
        # the run-length oracle reaches past the CLI's q <= 0.95 cap, so
        # design-point optimality and the asymptotic redundancy band are
        # checked against an actual Huffman code, not only the formulas
        lo, hi = 0.014159, 0.014583  # criterion 10's oscillation extremes
        for k in (14, 20, 34):
            q = 2 ** (-1 / k)
            code = oracle_at(q)
            est = code.avg_len_pair
            assert abs(est - avg_len_ck_design(k)) <= code.uncertainty
            assert est <= min(rival_avg_lens(q)) + code.uncertainty
            red = 0.5 * est - entropy_per_symbol(q)
            assert lo - 1e-5 <= red <= hi + 1e-5, (k, red)
            s_checked = code.source.s_max // 2
            ok, witnesses = two_level_check(lengths_by_signature(code), s_checked)
            assert ok, witnesses
            assert max_gap(lengths_by_signature(code), s_checked) == 0


def _exact_design_source(k, s_max):
    """Integer (weight, count) runs of the pair source at q = 1/b, b = 2^k,
    truncated at signature S = ``s_max``, and the index of its tail run: the
    float source's weights times b^(S+4) (1 - q)^2, with the tail after every
    run of at least its weight, as ``build_truncated_source`` places it."""
    b = 1 << k
    runs = [(b ** (s_max + 2 - s) * (b - 1) ** 2, s + 1) for s in range(s_max + 1)]
    tail = ((s_max + 1) * (b - 1) + b) * b**2
    at = sum(1 for weight, _ in runs if weight >= tail)
    runs.insert(at, (tail, 1))
    return runs, at


def test_criterion_14_exact_cminus_design_point_optimality():
    with criterion(14, "exact Huffman lengths equal cminus's at q = 2^-k"):
        for k in range(2, 9):
            codec = CminusCodec(k)
            for s_max in (40, 80, 160):
                runs, tail = _exact_design_source(k, s_max)
                taken, total, tail_depth = _merge_pass(runs, tail)
                run_depths = _depth_pass(runs, taken)
                assert isinstance(total, int)
                assert total == sum(weight * depth * count for (weight, _), depths in
                                    zip(runs, run_depths) for depth, count in depths)
                assert run_depths[tail] == [(tail_depth, 1)]
                depths = run_depths[:tail] + run_depths[tail + 1:]  # by signature
                for s in range(s_max // 2 + 1):
                    want = [(length, count) for length, count in codec.signature_lengths(s) if count]
                    assert depths[s] == want, (k, s_max, s)
