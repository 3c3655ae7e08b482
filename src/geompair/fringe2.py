"""Optimal trees of fringe thickness <= 2 for 4-uniform finite sources.

A full binary tree whose leaf depths span at most three consecutive
levels M-1, M, M+1 is described by a compact profile (n_{M-1}, n_M,
n_{M+1}) parameterized by sigma (short trees have M = ceil(log2 N) - 1,
long trees M = ceil(log2 N)) and by c, the number of internal nodes at
level M.  For a 4-uniform weight vector the average-length differences
between neighbouring profiles form a monotone sign sequence, so the
optimal profiles are a contiguous range; this module locates that range
and, for the two-dimensional geometric top sources, computes the optimal
parameters in closed form, from which ``CkCodec`` builds its top code.

Sources are given as unnormalized weights, largest first.  When every
weight is an int or Fraction all comparisons are exact; float weights use
a relative tolerance of 1e-12 for sign decisions.
"""

import math
from collections import namedtuple
from functools import lru_cache

SIGN_RTOL = 1e-12


class COutOfRange(ValueError):
    """Internal-node count c outside the valid range for (sigma, N)."""


class NotFourUniform(ValueError):
    """Largest/smallest weight ratio exceeds 4."""


class WeightedSource:
    """Finite multiset of positive weights, sorted non-increasing."""

    def __init__(self, weights) -> None:
        ws = list(weights)
        if not ws:
            raise ValueError("source must have at least one weight")
        if not all(w > 0 for w in ws):  # nan too
            raise ValueError("weights must be positive")
        if not all(ws[i] >= ws[i + 1] for i in range(len(ws) - 1)):
            raise ValueError("weights must be non-increasing")
        self.weights = tuple(ws)
        self.n = len(ws)
        # exact arithmetic is available when no weight is a float
        from fractions import Fraction

        self.exact = all(isinstance(w, (int, Fraction)) for w in ws)

    def is_four_uniform(self) -> bool:
        return self.weights[0] <= 4 * self.weights[-1]

    def total(self):
        return sum(self.weights)


class CompactProfile(namedtuple("CompactProfile", "sigma c m M leaves")):
    """Leaf counts ``leaves`` = (n_{M-1}, n_M, n_{M+1}) of a fringe-<=2
    tree, with m = ceil(log2 N) and M = m - sigma."""

    __slots__ = ()


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def c_bounds(sigma: int, n: int) -> tuple[int, int]:
    """Valid [c_min, c_max] for fringe-<=2 trees with n leaves."""
    if sigma not in (0, 1):
        raise ValueError("sigma must be 0 or 1")
    m = _ceil_log2(n)
    big_m = m - sigma
    c_min = (n - (1 << big_m)) * sigma
    c_max = (2 * n - (1 << big_m)) // 3
    return c_min, c_max


def profile_from(sigma: int, c: int, n: int) -> CompactProfile:
    """Compact profile of the fringe-<=2 tree with parameters (sigma, c).

    n_{M-1} = 2^M - n + c, n_M = 2n - 2^M - 3c, n_{M+1} = 2c; the three
    counts are nonnegative exactly when c lies in its valid range, and
    they always satisfy the Kraft equality.
    """
    c_min, c_max = c_bounds(sigma, n)
    if not c_min <= c <= c_max:
        raise COutOfRange(f"c={c} outside [{c_min}, {c_max}] for sigma={sigma}, N={n}")
    m = _ceil_log2(n)
    big_m = m - sigma
    leaves = ((1 << big_m) - n + c, 2 * n - (1 << big_m) - 3 * c, 2 * c)
    return CompactProfile(sigma, c, m, big_m, leaves)


def delta_sc(src: WeightedSource, sigma: int, c: int):
    """Average-length step between the (sigma, c-1) and (sigma, c) trees.

    Equals the sum of the two heaviest weights placed on level M+1 of the
    (sigma, c) tree minus the lightest weight on its level M-1, all
    unnormalized: w[N-2c] + w[N-2c+1] - w[2^M-N+c-1] in 0-based indexing.
    """
    n = src.n
    c_min, c_max = c_bounds(sigma, n)
    if not c_min < c <= c_max:
        raise COutOfRange(f"c={c} outside ({c_min}, {c_max}] for sigma={sigma}, N={n}")
    big_m = _ceil_log2(n) - sigma
    w = src.weights
    return w[n - 2 * c] + w[n - 2 * c + 1] - w[(1 << big_m) - n + c - 1]


def _sign(value, scale, exact: bool) -> int:
    if exact:
        return 0 if value == 0 else (1 if value > 0 else -1)
    if abs(value) <= SIGN_RTOL * scale:
        return 0
    return 1 if value > 0 else -1


def tree_chain(n: int) -> list[tuple[int, int]]:
    """All fringe-<=2 trees on n leaves in scan order.

    Short trees come first with c decreasing, then long trees with c
    increasing; the boundary tree appears once, as (1, c_min(1)), and is
    the same tree as (0, 0).
    """
    if n == 1:
        return [(0, 0)]
    c_min1, c_max1 = c_bounds(1, n)
    _, c_max0 = c_bounds(0, n)
    chain = [(1, c) for c in range(c_max1, c_min1 - 1, -1)]
    chain += [(0, c) for c in range(1, c_max0 + 1)]
    return chain


def trees_equivalent(n: int, a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether two (sigma, c) pairs denote the same physical tree."""
    if a == b:
        return True
    if n == 1:
        return False
    c_min1, _ = c_bounds(1, n)
    boundary = {(1, c_min1), (0, 0)}
    return a in boundary and b in boundary


def fringe2_optimal_range(src: WeightedSource) -> tuple[int, int, int, int]:
    """First and last optimal trees (sigma_lo, c_lo, sigma_hi, c_hi).

    The caller warrants that the source is 4-uniform and admits an
    optimal tree of fringe thickness <= 2 (not every 4-uniform source
    does).  Scanning the trees in chain order, the average length falls,
    plateaus, and rises; the returned endpoints delimit the plateau, and
    every tree between them attains the same minimal average length.
    The boundary tree may be reported as (1, c_min(1)) from the short
    side or (0, 0) from the long side; see :func:`trees_equivalent`.
    """
    if not src.is_four_uniform():
        raise NotFourUniform(
            f"weight ratio {src.weights[0]}/{src.weights[-1]} exceeds 4"
        )
    n = src.n
    if n == 1:
        return 0, 0, 0, 0
    c_min1, c_max1 = c_bounds(1, n)
    _, c_max0 = c_bounds(0, n)
    scale = float(src.weights[0])

    # One sign per step between neighbouring trees in chain order: the
    # short segment contributes -sign(D(1, c)) for c = c_max1 .. c_min1+1,
    # the long segment +sign(D(0, c)) for c = 1 .. c_max0.
    steps: list[tuple[int, tuple[int, int], tuple[int, int]]] = []
    for c in range(c_max1, c_min1, -1):
        s = -_sign(delta_sc(src, 1, c), scale, src.exact)
        steps.append((s, (1, c), (1, c - 1)))
    for c in range(1, c_max0 + 1):
        s = _sign(delta_sc(src, 0, c), scale, src.exact)
        steps.append((s, (0, c - 1), (0, c)))

    first = (1, c_max1)
    last = (0, c_max0)
    for s, _, after in steps:
        if s < 0:
            first = after
    for s, before, _ in steps:
        if s > 0:
            last = before
            break
    return first[0], first[1], last[0], last[1]


def optimal_trees(src: WeightedSource) -> list[tuple[int, int]]:
    """All optimal fringe-<=2 trees in chain order.

    The boundary tree is reported in its chain form (1, c_min(1)); use
    :func:`trees_equivalent` to compare against the (0, 0) spelling.
    """
    lo_s, lo_c, hi_s, hi_c = fringe2_optimal_range(src)
    chain = tree_chain(src.n)

    def index(tree: tuple[int, int]) -> int:
        for pos, entry in enumerate(chain):
            if trees_equivalent(src.n, entry, tree):
                return pos
        raise ValueError(f"tree {tree} not in chain")

    return chain[index((lo_s, lo_c)) : index((hi_s, hi_c)) + 1]


def profile_average_length(src: WeightedSource, sigma: int, c: int):
    """Average code length of the (sigma, c) tree under the source.

    Exact (a Fraction) when the source weights are ints or Fractions.
    Shorter codewords go to heavier weights.
    """
    prof = profile_from(sigma, c, src.n)
    cost = 0
    idx = 0
    for depth, count in zip(
        (prof.M - 1, prof.M, prof.M + 1), prof.leaves
    ):
        for _ in range(count):
            cost += depth * src.weights[idx]
            idx += 1
    total = src.total()
    if src.exact:
        from fractions import Fraction

        return Fraction(cost, total) if isinstance(total, int) else cost / total
    return cost / total


# ---------------------------------------------------------------------------
# Top source A_k = [0, k)^2 with weights q^(i+j) at q = 2^(-1/k)
# ---------------------------------------------------------------------------


class TopCodeParams(
    namedtuple("TopCodeParams", "k q m big_q M sigma j r delta_j c profile")
):
    """Closed-form optimal-tree parameters for the k x k top source.

    ``big_q`` = k^2 - ceil(k(k-1)/4) is the number of "heavy half"
    symbols; ``profile`` is the optimal tree's :class:`CompactProfile`.
    """

    __slots__ = ()


def _delta_poly(k: int, big_m: int, x: int) -> int:
    """2k^2 - 2^(M+1) + x(x+1) - (k-x-2)(k-x-1)/2, integer-exact at ints."""
    prod = (k - x - 2) * (k - x - 1)
    assert prod % 2 == 0
    return 2 * k * k - (1 << (big_m + 1)) + x * (x + 1) - prod // 2


# bounded because k comes from container headers (up to 65535, about 600
# bytes of records each); 128 holds the 64 ck orders that select and sweep
# evaluate at every q
@lru_cache(maxsize=128)
def top_code_params(k: int) -> TopCodeParams:
    """Optimal fringe-<=2 parameters for the k x k geometric top source.

    Works uniformly for k >= 1: k = 1 degenerates to the single empty
    codeword and k = 2 to the uniform 4-leaf tree.  The returned c is the
    smallest internal-node count among the optimal trees.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = k * k
    m = _ceil_log2(n)
    big_q = n - (k * (k - 1) + 3) // 4  # k^2 - ceil(k(k-1)/4)
    big_m = _ceil_log2(big_q)
    sigma = m - big_m

    # xi = floor of the largest real root of the step polynomial: largest
    # integer x with poly(x) <= 0, located by the quadratic formula and
    # pinned down with exact integer evaluations (the float root can sit
    # on either side of an integer boundary).
    #   2*poly(x) = x^2 + (2k-1)x + C
    big_c = 4 * n - (1 << (big_m + 2)) - (k - 2) * (k - 1)
    disc = (2 * k - 1) ** 2 - 4 * big_c
    x0 = (-(2 * k - 1) + math.isqrt(max(disc, 0))) // 2 if disc >= 0 else -1
    xi = x0
    while _delta_poly(k, big_m, xi + 1) <= 0:
        xi += 1
    while xi >= -1 and _delta_poly(k, big_m, xi) > 0:
        xi -= 1
    # integer self-check of the recurrence poly(x+1) = poly(x) + x + k
    assert _delta_poly(k, big_m, xi + 1) == _delta_poly(k, big_m, xi) + xi + k

    d_xi = _delta_poly(k, big_m, xi)
    if -d_xi <= 2 * xi:
        j, r = xi, (-d_xi + 1) // 2
    else:
        j, r = xi + 1, 0
    delta_j = _delta_poly(k, big_m, j)
    c = n - (1 << big_m) + j * (j + 1) // 2 + r
    prof = profile_from(sigma, c, n)
    return TopCodeParams(
        k=k,
        q=2.0 ** (-1.0 / k),
        m=m,
        big_q=big_q,
        M=big_m,
        sigma=sigma,
        j=j,
        r=r,
        delta_j=delta_j,
        c=c,
        profile=prof,
    )


def top_source_weights(k: int) -> WeightedSource:
    """The k x k source with float weights 2^(-(i+j)/k), non-increasing."""
    ws = sorted(
        (2.0 ** (-(i + j) / k) for i in range(k) for j in range(k)),
        reverse=True,
    )
    return WeightedSource(ws)


def top_code_symbols(k: int) -> list[tuple[int, int]]:
    """Pairs of [0, k)^2 ordered by signature, ties by lexicographic (i, j)."""
    return sorted(
        ((i, j) for i in range(k) for j in range(k)),
        key=lambda p: (p[0] + p[1], p),
    )
