from collections import Counter
from fractions import Fraction

import pytest
from codec_families import bit_string, top_codeword
from reference_theory import (
    NotFourUniform,
    WeightedSource,
    avg_len_ck_design,
    delta_sc,
    fringe2_optimal_range,
    optimal_trees,
    profile_average_length,
    top_code_symbols,
    top_source_weights,
    tree_chain,
    trees_equivalent,
)

from geompair.bitio import Codeword
from geompair.ck_codec import CkCodec
from geompair.fringe2 import COutOfRange, c_bounds, profile_from, top_code_params
from geompair.oracle import huffman_lengths

# N = 19 worked example: 49 times the probabilities, exact integers
SRC19 = WeightedSource([4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1])

# reference parameter table for the top sources, 2 <= k <= 10:
# k -> (M, j, r, sigma, c, profile)
TOP_PARAMS = {
    2: (2, 0, 0, 0, 0, (0, 4, 0)),
    3: (3, 0, 0, 1, 1, (0, 7, 2)),
    4: (4, 1, 0, 0, 1, (1, 13, 2)),
    5: (5, 3, 1, 0, 0, (7, 18, 0)),
    6: (5, 1, 0, 1, 5, (1, 25, 10)),
    7: (6, 5, 0, 0, 0, (15, 34, 0)),
    8: (6, 2, 2, 0, 5, (5, 49, 10)),
    9: (6, 0, 0, 1, 17, (0, 47, 34)),
    10: (7, 7, 1, 0, 1, (29, 69, 2)),
}


def test_profile_examples():
    assert profile_from(1, 4, 19).leaves == (1, 10, 8)
    assert profile_from(0, 1, 19).leaves == (14, 3, 2)
    assert profile_from(0, 0, 16).leaves == (0, 16, 0)


def test_profile_kraft_equality():
    for n in range(2, 200):
        for sigma in (0, 1):
            lo, hi = c_bounds(sigma, n)
            for c in range(lo, hi + 1):
                p = profile_from(sigma, c, n)
                assert all(x >= 0 for x in p.leaves)
                kraft = sum(
                    cnt * Fraction(1, 1 << lvl)
                    for cnt, lvl in zip(p.leaves, (p.M - 1, p.M, p.M + 1))
                    if cnt  # an empty level may sit at depth -1 when M = 0
                )
                assert kraft == 1


def test_profile_c_out_of_range():
    with pytest.raises(COutOfRange):
        profile_from(1, 2, 19)  # c_min(1) = 3
    with pytest.raises(COutOfRange):
        profile_from(0, 3, 19)  # c_max(0) = 2


@pytest.mark.parametrize(
    "sigma,c,expected",
    [(1, 5, 2), (1, 4, 0), (0, 2, 2)],
)
def test_delta_examples_scaled_by_49(sigma, c, expected):
    assert delta_sc(SRC19, sigma, c) == expected


def test_delta_c_out_of_range():
    with pytest.raises(COutOfRange):
        delta_sc(SRC19, 1, 3)  # steps exist only above c_min
    with pytest.raises(COutOfRange):
        delta_sc(SRC19, 0, 3)


def test_optimal_range_n19():
    assert fringe2_optimal_range(SRC19) == (1, 4, 0, 1)
    assert profile_average_length(SRC19, 1, 4) == Fraction(206, 49)
    # every tree on the plateau attains the same minimum
    for sigma, c in optimal_trees(SRC19):
        assert profile_average_length(SRC19, sigma, c) == Fraction(206, 49)


def test_weighted_source_refuses_nan_weights():
    nan = float("nan")
    for weights in ([2.0, nan, 1.0], [nan], [nan, 1.0], [2.0, nan]):
        with pytest.raises(ValueError):
            WeightedSource(weights)
    with pytest.raises(ValueError, match="non-increasing"):
        WeightedSource([1.0, 2.0])


def test_optimal_range_uniform_dyadic():
    src = WeightedSource([1] * 8)
    lo_s, lo_c, hi_s, hi_c = fringe2_optimal_range(src)
    assert trees_equivalent(8, (lo_s, lo_c), (0, 0))
    assert trees_equivalent(8, (hi_s, hi_c), (0, 0))


def test_optimal_range_requires_four_uniform():
    with pytest.raises(NotFourUniform):
        fringe2_optimal_range(WeightedSource([5, 1, 1]))


def test_sign_sequence_nondecreasing_random_sources():
    import random

    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 40)
        base = rng.randint(1, 50)
        ws = sorted((rng.randint(base, 4 * base) for _ in range(n)), reverse=True)
        src = WeightedSource(ws)
        signs = []
        lo1, hi1 = c_bounds(1, n)
        for c in range(hi1, lo1, -1):
            d = delta_sc(src, 1, c)
            signs.append(0 if d == 0 else (-1 if d > 0 else 1))
        lo0, hi0 = c_bounds(0, n)
        for c in range(lo0 + 1, hi0 + 1):
            d = delta_sc(src, 0, c)
            signs.append(0 if d == 0 else (1 if d > 0 else -1))
        assert signs == sorted(signs), (ws, signs)


def test_chain_boundary_identification():
    chain = tree_chain(19)
    assert chain[0] == (1, 7)
    assert (1, 3) in chain and (0, 0) not in chain
    assert trees_equivalent(19, (1, 3), (0, 0))
    assert not trees_equivalent(19, (1, 4), (0, 0))


@pytest.mark.parametrize("k", sorted(TOP_PARAMS))
def test_top_code_params_table(k):
    p = top_code_params(k)
    assert (p.M, p.j, p.r, p.sigma, p.c, p.profile.leaves) == TOP_PARAMS[k]


def test_top_code_params_k1_void():
    p = top_code_params(1)
    assert p.profile.leaves == (0, 1, 0)
    # one symbol, with the empty codeword
    assert [top_codeword(CkCodec(1), *sym) for sym in top_code_symbols(1)] == [(0, 0)]


@pytest.mark.parametrize("k", range(1, 65))
def test_top_code_params_invariants(k):
    p = top_code_params(k)
    assert 0 <= p.j <= max(k - 1, 0)
    assert 0 <= p.r <= p.j
    assert p.sigma == p.m - p.M
    kraft = sum(
        cnt * Fraction(1, 1 << lvl)
        for cnt, lvl in zip(p.profile.leaves, (p.M - 1, p.M, p.M + 1))
        if cnt
    )
    assert kraft == 1


@pytest.mark.parametrize("k", range(2, 11))
def test_top_params_are_smallest_optimal_c(k):
    # the computed c must be the least c among optimal trees with the
    # computed sigma (the boundary tree counts under both sigmas)
    p = top_code_params(k)
    n = k * k
    c_min1 = c_bounds(1, n)[0]
    cs = []
    for sigma, c in optimal_trees(top_source_weights(k)):
        if trees_equivalent(n, (sigma, c), (1, c_min1)):
            cs.append(c if p.sigma == 1 else 0)
        elif sigma == p.sigma:
            cs.append(c)
    assert cs and min(cs) == p.c


@pytest.mark.parametrize("k", range(1, 11))
def test_top_average_length_matches_closed_form(k):
    # pair average = top-code average + 4 expected unary bits at the
    # design point
    p = top_code_params(k)
    got = profile_average_length(top_source_weights(k), p.sigma, p.c) + 4.0
    want = avg_len_ck_design(k)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("k", range(1, 17))
def test_top_code_table_shape(k):
    codec = CkCodec(k)
    table = {sym: Codeword(*top_codeword(codec, *sym)) for sym in top_code_symbols(k)}
    p = top_code_params(k)
    assert len(table) == k * k
    assert max(cw.length for cw in table.values()) <= p.M + 1


@pytest.mark.parametrize("k", range(1, 7))
def test_huffman_agrees_with_top_code(k):
    lengths = huffman_lengths(top_source_weights(k).weights)
    codec = CkCodec(k)
    assert Counter(lengths) == Counter(
        top_codeword(codec, *sym)[1] for sym in top_code_symbols(k))


def test_top_code_table_k3_examples():
    codec = CkCodec(3)
    assert bit_string(*top_codeword(codec, 0, 0)) == "000"
    assert bit_string(*top_codeword(codec, 2, 2)) == "1111"
    assert bit_string(*top_codeword(codec, 1, 1)) == "100"
    # symbols are ordered by signature, then lexicographically
    assert top_code_symbols(3)[:4] == [(0, 0), (0, 1), (1, 0), (0, 2)]
