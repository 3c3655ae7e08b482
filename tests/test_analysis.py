import math

import pytest
from reference_theory import asymptotic_redundancy, avg_len_ck_design, oscillation_extremes

from geompair import analysis
from geompair.basecodes import GolombPairCodec, golomb_length
from geompair.ck_codec import CkCodec
from geompair.cminus_codec import CminusCodec, LimitCodec
from geompair.families import K_MAX, CodeFamily, make_codec
from geompair.analysis import (
    NoConvergence,
    NoSignChange,
    QOutOfRange,
    adaptive_select,
    avg_len_by_series,
    avg_lens_by_series,
    avg_len_ck,
    avg_len_limit_closed,
    best_golomb_order,
    crossover,
    entropy_per_symbol,
    golomb_pair_avg_len,
    redundancy_per_symbol,
)

GOLDEN = (math.sqrt(5) - 1) / 2


def test_entropy_examples():
    assert entropy_per_symbol(0.5) == 2.0
    assert abs(entropy_per_symbol(0.25) - 1.0817042) < 1e-6
    for q in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(QOutOfRange):
            entropy_per_symbol(q)


def test_avg_len_ck_examples():
    assert avg_len_ck(0.5, 1) == 4.0
    assert abs(avg_len_ck(2**-0.5, 2) - 6.0) < 1e-12
    assert abs(avg_len_ck_design(3) - 7.1526779) < 1e-6
    with pytest.raises(QOutOfRange):
        avg_len_ck(1.0, 3)


def test_zero_redundancy_at_half():
    assert abs(0.5 * avg_len_ck(0.5, 1) - entropy_per_symbol(0.5)) < 1e-12


@pytest.mark.parametrize("k", range(1, 65))
def test_design_specialization_consistent(k):
    q = 2 ** (-1 / k)
    a, b = avg_len_ck(q, k), avg_len_ck_design(k)
    assert abs(a - b) <= 1e-12 * b


@pytest.mark.parametrize("q", [0.3, 0.6, 0.8, 0.9])
@pytest.mark.parametrize("k", range(1, 9))
def test_series_matches_ck_closed_form(q, k):
    srs = avg_len_by_series(CkCodec(k), q, 1e-10)
    assert abs(srs - avg_len_ck(q, k)) < 1e-10 + 1e-9


def test_series_examples():
    assert abs(avg_len_by_series(GolombPairCodec(1), 0.5, 1e-10) - 4.0) < 1e-9
    limit_series = avg_len_by_series(LimitCodec(), 0.25, 1e-10)
    assert abs(limit_series - avg_len_limit_closed(0.25)) < 1e-9
    v = avg_len_by_series(CminusCodec(2), 0.25, 1e-10)
    assert 2 * entropy_per_symbol(0.25) - 1e-9 <= v <= avg_len_limit_closed(0.25)


def test_series_error_conditions():
    with pytest.raises(NoConvergence):
        avg_len_by_series(LimitCodec(), 1.0, 1e-9)
    with pytest.raises(NoConvergence, match="q=0.9999999 cannot certify eps=1e-09 within 5000000"):
        avg_len_by_series(LimitCodec(), 0.9999999, 1e-9)  # refused before any signature is summed
    with pytest.raises(QOutOfRange):
        avg_len_by_series(LimitCodec(), -0.5, 1e-9)
    with pytest.raises(ValueError):
        avg_len_by_series(LimitCodec(), 0.5, 0.0)


def test_series_refuses_a_nan_eps():
    # nan passed eps <= 0, and q^(S+1) underflowing certified the q: the
    # sum ran to SERIES_MAX_SIGNATURES before it raised NoConvergence
    with pytest.raises(ValueError, match="eps must be positive"):
        avg_len_by_series(CminusCodec(2), 0.3, eps=float("nan"))
    with pytest.raises(ValueError, match="eps must be positive"):
        avg_lens_by_series(GolombPairCodec(3), (0.3, 0.5), float("nan"))


class OneBitPerSignature:
    """A length model with one 1-bit codeword per signature."""

    def signature_lengths(self, s):
        return ((1, 1),)


def test_series_of_subnormal_weights():
    # q^s is subnormal but still falls where the series certifies (s = 1438,
    # q^s about 9.6e-320), so it sums; the sum is 1 - q
    assert abs(avg_len_by_series(OneBitPerSignature(), 0.6, 1e-310) - 0.4) < 1e-15
    # q^s sticks at a subnormal that q no longer lowers: refused there
    with pytest.raises(NoConvergence, match="^series truncation did not certify$"):
        avg_len_by_series(LimitCodec(), 0.8353469542309737, 5e-324)


def test_limit_closed_examples():
    assert abs(avg_len_limit_closed(0.25) - 2.2345378) < 1e-6
    assert avg_len_limit_closed(0.5) > 4.0
    assert abs(avg_len_limit_closed(1e-6) - 1.0) < 1e-4


@pytest.mark.parametrize(
    "q,k", [(0.5, 1), (0.7, 2), (GOLDEN, 1), (0.618035, 2), (0.9, 7)]
)
def test_best_golomb_order(q, k):
    assert best_golomb_order(q) == k


def _best_golomb_order_loop(q):
    # the original linear search, kept as the reference for the closed form
    k = 1
    while q**k + q ** (k + 1) > 1.0 + 1e-12:
        k += 1
    return k


def _golomb_pair_avg_len_sum(q, k):
    # the original remainder sum over range(k), kept as the reference; the
    # Golomb codeword of a remainder r < k is its quasi-uniform codeword and a zero
    resid = sum((golomb_length(k, r) - 1) * q**r for r in range(k)) * (1 - q) / (1 - q**k)
    return 2.0 * (resid + 1.0 + q**k / (1.0 - q**k))


def _golomb_boundary(k):
    # the largest float q at which the reference predicate still picks
    # order k (or less); the next float up picks k + 1
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid**k + mid ** (k + 1) <= 1.0 + 1e-12:
            lo = mid
        else:
            hi = mid
    return lo


def _golomb_reference_grid():
    qs = [i / 1000 for i in range(1, 1000)]
    # 1 - q log-spaced down to 7e-6, where the best order is about 1e5
    qs += [1.0 - 10 ** (-3 - 2.15 * i / 40) for i in range(41)]
    for k in list(range(1, 260)) + [621, 637, 1000, 10_000]:
        b = _golomb_boundary(k)
        qs += [b, math.nextafter(b, 0.0), math.nextafter(b, 1.0), b - 1e-12, b + 1e-12]
    qs += [0.5, 0.7, GOLDEN, 0.618035, 0.9]  # the test_best_golomb_order cases
    return qs


def test_best_golomb_order_matches_linear_search():
    qs = _golomb_reference_grid()
    assert max(_best_golomb_order_loop(q) for q in qs) >= 90_000
    for q in qs:
        assert best_golomb_order(q) == _best_golomb_order_loop(q), q


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99, 0.999])
def test_golomb_pair_closed_form_matches_remainder_sum(q):
    for k in range(1, 300):
        want = _golomb_pair_avg_len_sum(q, k)
        assert abs(golomb_pair_avg_len(q, k) - want) <= 1e-13 * want, k


def test_golomb_pair_closed_form_matches_remainder_sum_at_large_orders():
    for q in (1.0 - 1e-3, 1.0 - 1e-4, 1.0 - 7e-6):
        best = best_golomb_order(q)
        for k in (best - 1, best, best + 1, 99_999):
            want = _golomb_pair_avg_len_sum(q, k)
            assert abs(golomb_pair_avg_len(q, k) - want) <= 1e-11 * want, (q, k)


def test_best_golomb_order_is_bounded_near_one():
    # a linear search would take about 0.69 * mean steps here
    for mean in (1e6, 1e9, 1e12, 1e15):
        q = mean / (1.0 + mean)
        k = best_golomb_order(q)
        assert q**k + q ** (k + 1) <= 1.0 + 1e-12 < q ** (k - 1) + q**k
        assert abs(k / (mean * math.log(2.0)) - 1.0) < 1e-3
        assert math.isfinite(golomb_pair_avg_len(q, k))


def test_golomb_interval_endpoints_via_root_finding():
    # endpoint of the first interval solves q + q^2 = 1; bisect it and
    # compare with the closed form
    lo, hi = 0.5, 0.7
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid + mid * mid <= 1:
            lo = mid
        else:
            hi = mid
    assert abs(lo - GOLDEN) < 1e-12


def test_golomb_pair_closed_form_matches_series():
    for q, k in [(0.5, 1), (0.7, 2), (0.9, 5), (0.3, 1)]:
        srs = avg_len_by_series(GolombPairCodec(k), q, 1e-10)
        assert abs(srs - golomb_pair_avg_len(q, k)) < 1e-9


def test_no_family_beats_entropy():
    qs = [round(0.05 * i, 2) for i in range(1, 20)]
    for q in qs:
        floor = 2 * entropy_per_symbol(q) - 1e-9
        for k in (1, 2, 3, 5, 8):
            assert avg_len_ck(q, k) >= floor
            assert golomb_pair_avg_len(q, k) >= floor
        for k in (2, 3, 4):
            assert avg_len_by_series(CminusCodec(k), q, 1e-9) >= floor
        assert avg_len_limit_closed(q) >= floor


def test_oscillation_extremes():
    lo, hi = oscillation_extremes()
    assert abs(lo - 0.014159) < 1e-5
    assert abs(hi - 0.014583) < 1e-5


def test_asymptotic_redundancy_sweep_within_extremes():
    lo, hi = oscillation_extremes()
    vals = [asymptotic_redundancy(k) for k in range(3, 100_001, 13)]
    assert min(vals) >= lo - 1e-4 and abs(min(vals) - lo) < 1e-4
    assert max(vals) <= hi + 1e-4 and abs(max(vals) - hi) < 1e-4
    with pytest.raises(ValueError):
        asymptotic_redundancy(2)


def test_asymptotic_matches_actual_at_large_k():
    k = 4096
    q = 2 ** (-1 / k)
    actual = 0.5 * avg_len_ck(q, k) - entropy_per_symbol(q)
    assert abs(actual - asymptotic_redundancy(k)) < 1e-3


def test_crossover_limit_vs_unary_pair():
    q_star = crossover(
        avg_len_limit_closed, lambda q: avg_len_ck(q, 1), 0.25, 0.45, 1e-5
    )
    assert abs(q_star - 0.33715) < 5e-5


def test_crossover_between_first_two_orders_hits_golden_ratio():
    q_star = crossover(
        lambda q: avg_len_ck(q, 1), lambda q: avg_len_ck(q, 2), 0.55, 0.7, 1e-7
    )
    assert abs(q_star - GOLDEN) < 1e-6


def test_crossover_requires_sign_change():
    with pytest.raises(NoSignChange):
        crossover(lambda q: 1.0, lambda q: 2.0, 0.2, 0.4, 1e-5)


def test_crossover_rejects_curves_equal_at_both_ends():
    with pytest.raises(NoSignChange):
        crossover(lambda q: avg_len_ck(q, 3), lambda q: avg_len_ck(q, 3), 0.25, 0.45, 1e-6)
    with pytest.raises(NoSignChange):
        crossover(lambda q: 1.0, lambda q: 1.0, 0.2, 0.4, 1e-5)


def test_crossover_refuses_a_nan_tol():
    # nan passed tol <= 0, and hi - lo > nan stopped the bisection at once
    with pytest.raises(ValueError, match="tol must be positive"):
        crossover(lambda q: avg_len_ck(q, 1), lambda q: avg_len_ck(q, 2), 0.3, 0.9, float("nan"))


@pytest.mark.parametrize("q_lo, q_hi", [(0.9, 0.3), (float("nan"), 0.9), (0.3, float("nan")),
                                         (0.5, 0.5)])
def test_crossover_refuses_a_reversed_or_nan_bracket(q_lo, q_hi):
    # a reversed bracket returned its midpoint unbisected, and a nan end returned nan
    with pytest.raises(ValueError, match="need q_lo < q_hi"):
        crossover(lambda q: avg_len_ck(q, 1), lambda q: avg_len_ck(q, 2), q_lo, q_hi)


def test_crossover_zero_at_one_end_returns_that_end():
    assert crossover(lambda q: q, lambda q: 0.3, 0.3, 0.5, 1e-6) == 0.3
    assert crossover(lambda q: q, lambda q: 0.5, 0.3, 0.5, 1e-6) == 0.5


def test_limit_vs_unary_pair_ordering_flips_at_crossover():
    assert avg_len_limit_closed(0.33) < avg_len_ck(0.33, 1)
    assert avg_len_limit_closed(0.34) > avg_len_ck(0.34, 1)


def test_design_point_beats_best_golomb():
    for k in range(3, 11):
        q = 2 ** (-1 / k)
        best = best_golomb_order(q)
        assert best == k
        r_new = redundancy_per_symbol(avg_len_ck_design(k), q)
        r_golomb = redundancy_per_symbol(golomb_pair_avg_len(q, best), q)
        assert r_new < r_golomb


def test_adaptive_select_examples():
    assert adaptive_select(1.0) == analysis.CodeFamily("ck", 1)
    low = adaptive_select(0.2)
    assert low.kind in ("cminus", "limit")
    three = adaptive_select(3.0)
    best_k = min(range(1, 65), key=lambda k: avg_len_ck(0.75, k))
    assert three == analysis.CodeFamily("ck", best_k)
    with pytest.raises(ValueError):
        adaptive_select(-0.5)
    assert adaptive_select(0.0).kind == "limit"


def _select_excess(mean, cminus):
    """How far the pair average of ``adaptive_select(mean)`` lies above the
    least over an explicit family list, independent of ``_candidates``: ck
    1..64, the best Golomb order and its neighbours, the limit code, and
    the cminus averages in ``cminus``."""
    q = mean / (1.0 + mean)
    lengths = {CodeFamily("ck", k): avg_len_ck(q, k) for k in range(1, 65)}
    best = _best_golomb_order_loop(q)
    for k in range(max(1, best - 1), best + 2):
        lengths[CodeFamily("golomb", k)] = golomb_pair_avg_len(q, k)
    lengths[CodeFamily("limit")] = avg_len_limit_closed(q)
    lengths.update(cminus)
    return lengths[adaptive_select(mean)] - min(lengths.values())


CMINUS_ORDERS = [CodeFamily("cminus", k) for k in range(2, 11)]


def test_adaptive_select_matches_direct_minimum():
    # log-spaced means over the tabulated range q in [0.02, 0.985], dense
    # enough to land inside the narrow intervals where an intermediate
    # ck k wins between two points of the selector's q grid; cminus is
    # summed over the means below q = 0.6 at once, and the sparse means of
    # the brute-force test check it above that
    lo, hi = math.log(0.02 / 0.98), math.log(0.985 / 0.015)
    n = 2400
    means = [math.exp(lo + (hi - lo) * (i + 0.5) / n) for i in range(n)]
    low = [mean / (1.0 + mean) for mean in means if mean / (1.0 + mean) < 0.6]
    sums = {f: dict(zip(low, avg_lens_by_series(make_codec(f), low, 1e-10))) for f in CMINUS_ORDERS}
    for mean in means:
        q = mean / (1.0 + mean)
        cminus = {f: by_q[q] for f, by_q in sums.items()} if q < 0.6 else {}
        excess = _select_excess(mean, cminus)
        # the selector sums cminus series to within its own 1e-8
        assert excess <= 1e-8, (mean, adaptive_select(mean).label(), excess)
    # the defect case: ck k=20 wins only between two grid points
    assert adaptive_select(28.3) == analysis.CodeFamily("ck", 20)


def _ck_crossover_means(k, offsets=(-1e-7, -1e-8, 1e-8, 1e-7)):
    q_star = crossover(
        lambda q: avg_len_ck(q, k), lambda q: avg_len_ck(q, k + 1),
        2 ** (-1 / k), 2 ** (-1 / (k + 1)), 1e-13,
    )
    return [(q_star + d) / (1.0 - q_star - d) for d in offsets]


def test_adaptive_select_matches_brute_force_minimum():
    means = [1e-6, 1e-3, 0.01, 0.015, 0.0203]  # q-hat below 0.02
    means += [70.0, 100.0, 300.0, 999.0]  # q-hat above 0.985
    means += [0.1, 0.3, 0.5, 1.0, 3.0, 28.3]
    for k in (1, 2, 5, 10, 19, 20, 33, 63):
        means += _ck_crossover_means(k)
    for mean in means:
        q = mean / (1.0 + mean)
        excess = _select_excess(mean, {f: analysis.family_avg_len(f, q, 1e-10) for f in CMINUS_ORDERS})
        # the selector sums cminus series to within its own 1e-8
        assert excess <= 1e-8, (mean, adaptive_select(mean).label(), excess)


def test_adaptive_select_caps_the_golomb_order_at_the_header_limit():
    # from mean 94547.24 on the best Golomb order exceeds K_MAX; the Golomb
    # pair average is unimodal in the order, so the order-K_MAX code is the
    # best one that a container can hold, and it beats every ck order there
    assert best_golomb_order(94_547.0 / 94_548.0) == K_MAX
    assert best_golomb_order(94_547.3 / 94_548.3) == K_MAX + 1
    for mean in (1e5, 1e6, 1e8, 1e12):
        assert adaptive_select(mean) == CodeFamily("golomb", K_MAX), mean


def test_adaptive_select_below_the_cap_is_uncapped(monkeypatch):
    means = [10 ** (e / 4) for e in range(-12, 20)] + [9e4, 94_547.0]
    capped = [adaptive_select(mean) for mean in means]
    monkeypatch.setattr(analysis, "K_MAX", math.inf)
    assert [adaptive_select(mean) for mean in means] == capped


def test_adaptive_select_leaves_the_cminus_memo_unbuilt():
    # the series reads signature_lengths, which does not build the codec's
    # coding memo; building it for nine orders costs more than a cold select
    make_codec.cache_clear()
    adaptive_select(0.3)
    for k in range(2, 11):
        codec = make_codec(analysis.CodeFamily("cminus", k))
        assert "_rows" not in vars(codec), k
    codec.encode((1, 2))
    assert "_rows" in vars(codec)


def test_adaptive_select_evaluates_each_candidate_once(monkeypatch):
    calls = []
    family_avg_len = analysis.family_avg_len

    def counting(family, q, eps=1e-9):
        calls.append(family)
        return family_avg_len(family, q, eps)

    monkeypatch.setattr(analysis, "family_avg_len", counting)
    for mean in (0.01, 0.5, 1.0, 28.3, 1e4, 1e12):
        calls.clear()
        adaptive_select(mean)
        assert 0 < len(calls) <= len(analysis._candidates(mean / (1.0 + mean))), mean


def test_series_over_many_qs_is_the_series_at_each_q():
    qs = [0.3, 0.05, 0.95, 0.5, 0.3]  # a later q reuses the rows of an earlier one
    for codec in (CminusCodec(2), CminusCodec(7), LimitCodec(), CkCodec(3), GolombPairCodec(3)):
        assert avg_lens_by_series(codec, qs, 1e-9) == [avg_len_by_series(codec, q, 1e-9) for q in qs]


def test_sweep_computes_each_cminus_row_once(monkeypatch, capsys):
    from collections import Counter

    from geompair import cminus_codec
    from geompair.cli import main

    calls = Counter()
    signature_row = cminus_codec.signature_row

    def counting(k, s):
        calls[k, s] += 1
        return signature_row(k, s)

    monkeypatch.setattr(cminus_codec, "signature_row", counting)
    assert main(["sweep"]) == 0
    capsys.readouterr()
    assert calls and max(calls.values()) == 1
