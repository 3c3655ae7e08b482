import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_theory import (
    NoConvergence,
    asymptotic_redundancy,
    avg_len_by_series,
    avg_len_ck_design,
    avg_len_limit_closed,
    avg_lens_by_series,
    oscillation_extremes,
)

from geompair import analysis
from geompair.basecodes import GolombPairCodec, golomb_length
from geompair.ck_codec import CkCodec
from geompair.cminus_codec import CminusCodec, LimitCodec
from geompair.families import FAMILY_BYTES, K_MAX, CodeFamily, DataError, make_codec
from geompair.analysis import (
    NoSignChange,
    QOutOfRange,
    adaptive_select,
    avg_len_ck,
    avg_len_cminus,
    best_golomb_order,
    crossover,
    entropy_per_symbol,
    family_avg_len,
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
    assert issubclass(NoConvergence, DataError)
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
    for limit in (avg_len_limit_closed, lambda q: avg_len_cminus(q, math.inf)):
        assert abs(limit(0.25) - 2.2345378) < 1e-6
        assert limit(0.5) > 4.0
        assert abs(limit(1e-6) - 1.0) < 1e-4


# below 0.999 a series sums in a fraction of a second, and at 0.999 in about
# 0.2 s: there it runs for orders whose periodic regime, from signature
# 2^(k-1) - 1, still weighs, and for 64, where the t-sum stops first
SERIES_QS = [1e-6, 0.001, 0.05, 0.2, 0.4, 0.5, 0.6, 0.8, 0.9, 0.97, 0.99]
SERIES_QS_AT_0999 = [2, 3, 5, 8, 11, 13, 14, 15, 64]


@pytest.mark.parametrize("k", range(2, 65))
def test_avg_len_cminus_matches_the_series(k):
    qs = SERIES_QS + [0.999] * (k in SERIES_QS_AT_0999)
    for q, series in zip(qs, avg_lens_by_series(CminusCodec(k), qs, 1e-12)):
        assert abs(avg_len_cminus(q, k) - series) <= 1e-12 * series, q


def test_avg_len_cminus_at_inf_matches_the_limit_t_sum():
    for i in range(1, 1000):
        q = i / 1000
        want = avg_len_limit_closed(q)
        assert abs(avg_len_cminus(q, math.inf) - want) <= 1e-15 * want, q


def test_avg_len_cminus_of_a_huge_order_is_the_limit_code():
    # the t-sum stops where its terms fall below rounding, long before an order of
    # 10^6 or 10^400 reaches its periodic regime, and so at once near q = 1
    start = time.perf_counter()
    for q in (1e-300, 0.1, 0.5, 0.9, 0.99999, 1.0 - 2**-53):
        limit = avg_len_cminus(q, math.inf)
        assert avg_len_cminus(q, 10**6) == avg_len_cminus(q, 10**400) == limit, q
    assert time.perf_counter() - start < 0.1
    assert avg_len_cminus(0.5, 10**400) == family_avg_len(CodeFamily("limit"), 0.5)


def test_avg_len_cminus_refuses_q_outside_the_unit_interval():
    for q in (0.0, 1.0, -0.5, float("nan")):
        with pytest.raises(QOutOfRange):
            avg_len_cminus(q, 3)
        with pytest.raises(QOutOfRange):
            avg_len_cminus(q, math.inf)


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
        for k in (2, 3, 4, math.inf):
            assert avg_len_cminus(q, k) >= floor


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
        lambda q: avg_len_cminus(q, math.inf), lambda q: avg_len_ck(q, 1), 0.25, 0.45, 1e-5
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
    assert avg_len_cminus(0.33, math.inf) < avg_len_ck(0.33, 1)
    assert avg_len_cminus(0.34, math.inf) > avg_len_ck(0.34, 1)


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


def _wide_ck_orders(q):
    """ck orders far past the selector's, independent of ``_ck_orders``: 1 to
    ceil(4 k*) + 64 with k* = -1/log2 q, and k* - 400 to k* + 400 above
    mean 2000, each capped at K_MAX."""
    k_star = -1.0 / math.log2(q)
    if q / (1.0 - q) > 2000:
        low = max(1, min(math.floor(k_star), K_MAX) - 400)
        return range(low, min(math.ceil(k_star) + 400, K_MAX) + 1)
    return range(1, min(math.ceil(4 * k_star) + 64, K_MAX) + 1)


def _wide_cminus_orders(q):
    """cminus orders far past the selector's, independent of ``_orders``: 2 to
    ceil(4 k*) + 64 with k* = -log2 q, capped at K_MAX."""
    return range(2, min(math.ceil(-4 * math.log2(q)) + 64, K_MAX) + 1)


def _ck_orders(q):
    return analysis._orders(-1.0 / math.log2(q), 1)


def _cminus_orders(q):
    return analysis._orders(-math.log2(q), 2)


def _select_excess(mean, series):
    """How far the pair average of ``adaptive_select(mean)`` lies above the
    least over an explicit family list of encodable orders, independent of
    ``_candidates``: the wide ck and cminus scans, the best Golomb order and
    its neighbours up to K_MAX, and the limit code.  ``series`` maps cminus
    orders to reference sums that replace their closed forms."""
    q = mean / (1.0 + mean)
    lengths = {CodeFamily("ck", k): avg_len_ck(q, k) for k in _wide_ck_orders(q)}
    best = _best_golomb_order_loop(q)
    for k in range(max(1, min(best, K_MAX) - 1), min(best + 1, K_MAX) + 1):
        lengths[CodeFamily("golomb", k)] = golomb_pair_avg_len(q, k)
    lengths[CodeFamily("limit")] = avg_len_limit_closed(q)
    lengths.update({CodeFamily("cminus", k): avg_len_cminus(q, k) for k in _wide_cminus_orders(q)})
    lengths.update(series)
    return lengths[adaptive_select(mean)] - min(lengths.values())


def test_ck_orders_hold_the_least_ck_average():
    # means 10^(e/16) from 1e-4 to 1e5: the orders beside k* hold the least
    # average of the wide scan, as the same float, and past k* = K_MAX + 1
    # they are K_MAX alone, the best encodable order of a unimodal average
    for e in range(-64, 81):
        q = 10 ** (e / 16) / (1.0 + 10 ** (e / 16))
        orders = _ck_orders(q)
        assert 1 <= min(orders) and max(orders) <= K_MAX and len(orders) <= 4, (e, orders)
        least = min(avg_len_ck(q, k) for k in _wide_ck_orders(q))
        assert min(avg_len_ck(q, k) for k in orders) == least, (e, orders)
    assert _ck_orders(1e5 / (1.0 + 1e5)) == [K_MAX]
    assert _ck_orders(2 ** (-1 / (K_MAX + 1.5))) == [K_MAX]
    assert _ck_orders(2 ** (-1 / (K_MAX + 0.5))) == [K_MAX, K_MAX - 1]
    assert _ck_orders(0.5) == [1, 2]
    assert _ck_orders(1e-300) == [1, 2]


def test_cminus_orders_hold_the_least_cminus_average():
    # means 10^(e/16) from 1e-4 to 1e5, and down to the least positive float:
    # the orders beside k* = -log2 q hold the least average of the wide scan,
    # as the same float, nearest k* first
    for mean in [10 ** (e / 16) for e in range(-64, 81)] + [1e-20, 1e-300, 5e-324]:
        q = mean / (1.0 + mean)
        orders = _cminus_orders(q)
        assert 2 <= min(orders) and max(orders) <= K_MAX and len(orders) <= 4, (mean, orders)
        least = min(avg_len_cminus(q, k) for k in _wide_cminus_orders(q))
        assert min(avg_len_cminus(q, k) for k in orders) == least, (mean, orders)
    assert _cminus_orders(2.0**-7) == [7, 6, 8]
    assert _cminus_orders(0.3) == [2, 3]
    assert _cminus_orders(0.5) == [2]
    assert _cminus_orders(5e-324) == [1074, 1073, 1075]


def test_adaptive_select_names_the_paper_code_at_its_design_points():
    # cminus k is optimal at q = 2^(-k) and ck k at q = 2^(-1/k); at the former
    # the neighbouring cminus orders tie with it to rounding
    for k in range(2, 21):
        q = 2.0**-k
        assert adaptive_select(q / (1.0 - q)) == CodeFamily("cminus", k), k
    assert adaptive_select(5e-324) == CodeFamily("cminus", 1074)  # q = 2^-1074
    for k in [*range(1, 200), 256, 693, 1000, 4096, 65535]:
        q = 2 ** (-1 / k)
        assert adaptive_select(q / (1.0 - q)) == CodeFamily("ck", k), k


@pytest.mark.parametrize("below, want", [(4, ("cminus", 7)), (16, ("cminus", 6))])
def test_adaptive_select_keeps_the_nearest_order_within_the_tie_bound(monkeypatch, below, want):
    # at q = 2^-7 cminus 7 comes before its neighbour cminus 6, and keeps its
    # place unless cminus 6 is lower by more than _TIE = 8 * 2^-52 of it
    lengths = {CodeFamily("cminus", 7): 1.0, CodeFamily("cminus", 6): 1.0 - below * 2.0**-52}
    monkeypatch.setattr(analysis, "family_avg_len", lambda family, q: lengths.get(family, 2.0))
    assert adaptive_select(2.0**-7 / (1.0 - 2.0**-7)) == CodeFamily(*want)


@settings(max_examples=300, deadline=None)
@given(st.floats(math.log(1e-300), math.log(1e6)).map(math.exp))
def test_adaptive_select_is_encodable_and_least_within_the_tie_bound(mean):
    fam = adaptive_select(mean)
    assert fam.kind in FAMILY_BYTES and (fam.k is None or 1 <= fam.k <= K_MAX)
    q = mean / (1.0 + mean)
    length = family_avg_len(fam, q)
    least = min(family_avg_len(f, q) for f in analysis._candidates(q))
    assert math.isfinite(length) and length <= least * (1.0 + analysis._TIE), (mean, fam)


# every cminus order that select names at the means of the two tests below
# (cminus 20 at mean 1e-6), and four past it, summed by the reference series
CMINUS_ORDERS = [CodeFamily("cminus", k) for k in range(2, 25)]


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
        # within the reference series' 1e-10 and rounding
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
    qs = [mean / (1.0 + mean) for mean in means]
    sums = {f: avg_lens_by_series(make_codec(f), qs, 1e-10) for f in CMINUS_ORDERS}
    for i, mean in enumerate(means):
        excess = _select_excess(mean, {f: by_q[i] for f, by_q in sums.items()})
        # within the reference series' 1e-10 and rounding
        assert excess <= 1e-8, (mean, adaptive_select(mean).label(), excess)
    # from q-hat 0.9999 on the cminus averages are the closed forms, checked
    # against the series below: at mean 1e4 each series sums for most of a
    # second, and from about mean 94547 none certifies within
    # SERIES_MAX_SIGNATURES.  At mean 999 cminus2 already takes 3996 bits per
    # pair and cminus10 18996, against ck's 22.8
    for mean in (1e4, 94_547.0, 1e5):
        excess = _select_excess(mean, {})
        assert excess <= 1e-12, (mean, adaptive_select(mean).label(), excess)


def test_adaptive_select_caps_the_golomb_order_at_the_header_limit():
    # from mean 94547.24 on the best Golomb order exceeds K_MAX; the Golomb
    # pair average is unimodal in the order, so the order-K_MAX code is the
    # best one that a container can hold.  ck, capped at K_MAX too, beats it
    # at mean 1e5 (36.1384 against 36.1602 bits per pair), and loses to it
    # from mean 1e6 on (63.6038 against 63.5289 there)
    assert best_golomb_order(94_547.0 / 94_548.0) == K_MAX
    assert best_golomb_order(94_547.3 / 94_548.3) == K_MAX + 1
    q = 1e5 / (1.0 + 1e5)
    assert round(avg_len_ck(q, K_MAX), 4) == 36.1384
    assert round(golomb_pair_avg_len(q, K_MAX), 4) == 36.1602
    assert adaptive_select(1e5) == CodeFamily("ck", K_MAX)
    for mean in (1e6, 1e8, 1e12):
        assert adaptive_select(mean) == CodeFamily("golomb", K_MAX), mean


def test_adaptive_select_below_the_cap_is_uncapped(monkeypatch):
    means = [10 ** (e / 4) for e in range(-12, 20)] + [9e4, 94_547.0]
    capped = [adaptive_select(mean) for mean in means]
    monkeypatch.setattr(analysis, "K_MAX", math.inf)
    assert [adaptive_select(mean) for mean in means] == capped


def test_adaptive_select_leaves_the_cminus_memo_unbuilt():
    # the selector reads closed forms and builds no codec, so no coding memo:
    # building it for nine orders costs more than a cold select
    make_codec.cache_clear()
    adaptive_select(0.3)
    analysis.best_averages_by_kind([0.05, 0.3, 0.9])
    assert make_codec.cache_info().currsize == 0


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
