"""Closed-form optimal top code for ck: fringe-<=2 trees of the k x k top source.

A full binary tree whose leaf depths span at most three consecutive
levels M-1, M, M+1 is described by a compact profile (n_{M-1}, n_M,
n_{M+1}) parameterized by sigma (short trees have M = ceil(log2 N) - 1,
long trees M = ceil(log2 N)) and by c, the number of internal nodes at
level M; :func:`profile_from` gives the profile of (sigma, c).  For the
two-dimensional geometric top source A_k = [0, k)^2 with weights
q^(i+j) at q = 2^(-1/k), :func:`top_code_params` computes the optimal
tree's parameters in closed form, in integer arithmetic, and
``CkCodec`` builds its top code from them.  The tests hold the closed form
to a search over all fringe-<=2 trees (``tests/reference_theory.py``).
"""

import math
from collections import namedtuple
from functools import lru_cache


class COutOfRange(ValueError):
    """Internal-node count c outside the valid range for (sigma, N)."""


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
# bytes of records each); select and sweep evaluate the at most 4 ck orders
# beside k* = -1/log2 q at each q, and a sweep's neighbouring q share them
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

