"""The theory that the tests check the package's closed forms and oracle
against: the fringe-<=2 search over 4-uniform sources, the structural
checks of oracle trees, and the design-point family at its own design
points and as q -> 1.

The search is after Gallager and Van Voorhis, "Optimal source codes for
geometrically distributed integer alphabets" (IEEE Trans. IT, 1975).  A
full binary tree whose leaf depths span at most three consecutive levels
is the ``geompair.fringe2.profile_from`` profile of its parameters
(sigma, c).  For a 4-uniform weight vector the average-length differences
between neighbouring profiles form a monotone sign sequence, so the
optimal profiles are a contiguous range; :func:`fringe2_optimal_range`
locates it by that sequence.  The package builds its top code from the
closed form ``top_code_params`` alone, and the tests hold that closed
form to this search (criteria 01 and 02).

Sources are given as unnormalized weights, largest first.  When every
weight is an int or Fraction all comparisons are exact; float weights use
a relative tolerance of ``SIGN_RTOL`` for sign decisions.

:func:`two_level_check`, :func:`max_gap` and :func:`gap_bound` state the
structure of optimal trees that criteria 12 and 13 check on the oracle's
Huffman codes, whose lengths :func:`lengths_by_signature` gathers.

:func:`avg_len_ck_design` is ``geompair.analysis.avg_len_ck`` simplified
at q = 2^(-1/k).  :func:`oscillation_redundancy` is the paper's limit of
the order-k code's per-symbol redundancy as q -> 1 (arXiv:1102.2413), a
function of the level ratio 2^M / k^2; :func:`asymptotic_redundancy`
evaluates it at order k, and :func:`oscillation_extremes` bounds it to
the band [0.014159, 0.014583] that criterion 10 checks.

:func:`avg_len_by_series` sums any codec's average signature by signature,
to a certified tail bound, from the codec's per-signature lengths
(:func:`signature_lengths`): the reference that criterion 03 and the tests
hold ``geompair.analysis``'s closed forms to.  :func:`avg_len_limit_closed`
is the limit code's average as the t-sum of its classes, the reference for
``avg_len_cminus`` at k = inf.
"""

import math
from fractions import Fraction
from functools import partial

from geompair.families import DataError, _check_q
from geompair.fringe2 import COutOfRange, _ceil_log2, c_bounds, profile_from, top_code_params

SIGN_RTOL = 1e-12
LOG2E = math.log2(math.e)


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
        self.exact = all(isinstance(w, (int, Fraction)) for w in ws)

    def is_four_uniform(self) -> bool:
        return self.weights[0] <= 4 * self.weights[-1]

    def total(self):
        return sum(self.weights)


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
        return Fraction(cost, total) if isinstance(total, int) else cost / total
    return cost / total


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


# ---------------------------------------------------------------------------
# Structure of oracle trees
# ---------------------------------------------------------------------------


def lengths_by_signature(code) -> dict[int, list[int]]:
    """The codeword lengths of an oracle code per signature, the tail under -1:
    its ``run_depths`` expanded symbol by symbol, so each list is sorted."""
    return {
        sig: [d for d, c in depths for _ in range(c)]
        for (_, sig, _), depths in zip(code.source.runs, code.run_depths)
    }


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


# ---------------------------------------------------------------------------
# The design-point family at its design points, and as q -> 1
# ---------------------------------------------------------------------------


def avg_len_ck_design(k: int) -> float:
    """avg_len_ck at the code's own design point q = 2^(-1/k).

    Simplifies (q^k = 1/2 makes the r terms cancel) to
    M + 1 + 2 q^j (1 + (1-q)(qk + (2-q)j) + (1-q)^2 (1 + D)).
    """
    p = top_code_params(k)
    q = 2.0 ** (-1.0 / k)
    vstar = (
        1.0
        + (1.0 - q) * (q * k + (2.0 - q) * p.j)
        + (1.0 - q) ** 2 * (1.0 + p.delta_j)
    )
    return p.M + 1 + 2.0 * q**p.j * vstar


def _level_ratio(k: int) -> float:
    """2^M / k^2 for the order-k top code; sweeps (3/4, 3/2) as k grows."""
    return (1 << top_code_params(k).M) / (k * k)


def oscillation_redundancy(lam: float) -> float:
    """Limiting per-symbol redundancy as a function of the level ratio:
    (1 + log lam)/2 + 2^(1 - 2 sqrt(lam - 1/2)) (1 + 2 sqrt(lam - 1/2)/log e)
    - log(e log e).
    """
    root = math.sqrt(lam - 0.5)
    return (
        0.5 * (1.0 + math.log2(lam))
        + 2.0 ** (1.0 - 2.0 * root) * (1.0 + 2.0 * root / LOG2E)
        - math.log2(math.e * LOG2E)
    )


def asymptotic_redundancy(k: int) -> float:
    """oscillation_redundancy evaluated at the order-k level ratio."""
    if k < 3:
        raise ValueError("asymptotic form is defined for k >= 3")
    return oscillation_redundancy(_level_ratio(k))


def _golden_extremum(f, lo: float, hi: float, sign: float, iters: int = 120):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = sign * f(c), sign * f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = sign * f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def oscillation_extremes(lo: float = 0.75, hi: float = 1.5) -> tuple[float, float]:
    """(min, max) of oscillation_redundancy over the level-ratio interval."""
    xs = [lo + (hi - lo) * i / 2000 for i in range(2001)]
    ys = [oscillation_redundancy(x) for x in xs]
    lo_i = min(range(len(ys)), key=ys.__getitem__)
    hi_i = max(range(len(ys)), key=ys.__getitem__)

    def refine(i: int, sign: float) -> float:
        a = xs[max(i - 1, 0)]
        b = xs[min(i + 1, len(xs) - 1)]
        if a == b:
            return ys[i]
        return _golden_extremum(oscillation_redundancy, a, b, sign)[1]

    return (
        min(ys[lo_i], refine(lo_i, 1.0)),
        max(ys[hi_i], refine(hi_i, -1.0)),
    )


# ---------------------------------------------------------------------------
# Averages signature by signature, and the limit code's t-sum
# ---------------------------------------------------------------------------

SERIES_MAX_SIGNATURES = 5_000_000  # a series not certified past it raises NoConvergence


class NoConvergence(DataError):
    """A series cannot converge for the given parameter."""


def residue_signature_lengths(codec, s: int) -> tuple[tuple[int, int], ...]:
    """``signature_lengths(s)`` of a pair code of order ``codec.k`` that sends
    the residues (a, b) = (i mod k, j mod k), then both quotients in unary
    (ck and Golomb).

    For a, b < k the coder's length is the residues' codeword and two unary
    zeros.  Within one residue a of i, b = (s - a) mod k is fixed and the
    quotients sum to (s - a - b) / k, so the (s - a) // k + 1 pairs of that
    residue share one length.
    """
    if s < 0:
        raise ValueError("signature must be >= 0")
    k, coder = codec.k, codec._coder
    groups = []
    for a in range(min(k, s + 1)):
        b = (s - a) % k
        groups.append((coder(a, b)[1] + (s - a - b) // k, (s - a) // k + 1))
    return tuple(groups)


def signature_lengths(codec):
    """``s -> ((length, count), ...)``, the lengths of the s + 1 codewords of
    the pairs (i, s - i), counts summing to s + 1 (a count may be 0): the
    codec's own ``signature_lengths`` (cminus and limit), else
    :func:`residue_signature_lengths` (ck and Golomb)."""
    method = getattr(codec, "signature_lengths", None)
    return method if method is not None else partial(residue_signature_lengths, codec)


def avg_len_by_series(codec, q: float, eps: float = 1e-9) -> float:
    """(1-q)^2 * sum over s of q^s * (total code length of signature s),
    summed from :func:`signature_lengths` and truncated once a certified
    tail bound drops below eps.

    The bound needs every codeword of signature s to be at most (s+2)^2
    bits long from s = S0 = max(4, L0) on, L0 the longest codeword of
    signature 0.  cminus and limit meet Lambda_s + 1 <= (s+2)^2 from
    s = 0.  ck and golomb meet (longest at s) <= L0 + s + 2, since their
    residue codes span at most 2 bits beyond the length at residue (0, 0)
    and the quotients add at most s unary bits; L0 + s + 2 <= 2s + 2
    for s >= L0.  A signature total is then below (s+2)^3, so the tail
    beyond S is at most q^S (S+2)^3 / (1 - q e^(3/(S+2))) signature-weight
    units.  The returned value has absolute error < eps.
    """
    return avg_lens_by_series(codec, (q,), eps)[0]


def avg_lens_by_series(codec, qs, eps: float = 1e-9) -> list[float]:
    """:func:`avg_len_by_series` at each q of ``qs``, in order.

    Each signature's total length is computed once, for the first q that
    reaches it, and every q sums the totals in the same order as a call
    of its own, so the results are the same floats.
    """
    if not eps > 0:  # nan too
        raise ValueError("eps must be positive")
    qs = tuple(qs)
    for q in qs:
        _check_certifies(q, eps)
    lengths = signature_lengths(codec)
    groups = lengths(0)
    start = max(4, max(length for length, _ in groups))
    totals = [sum(length * count for length, count in groups)]  # per signature, for every q
    out = []
    for q in qs:
        scale = (1.0 - q) ** 2
        total = 0.0
        weight = 1.0
        s = 0
        while True:
            if s == len(totals):
                signature_total = sum(length * count for length, count in lengths(s))
                if s >= start and signature_total > (s + 2) ** 3:
                    raise AssertionError("codec lengths outgrow the series tail bound")
                totals.append(signature_total)
            total += weight * totals[s]
            s += 1
            weight *= q
            if s >= start:
                damped = q * math.exp(3.0 / (s + 2))
                if damped < 1.0:
                    tail = weight * (s + 2) ** 3 / (1.0 - damped)
                    if scale * tail < eps:
                        out.append(scale * total)
                        break
            # a positive weight that q no longer lowers (a subnormal) stays
            # put, and the tail bound grows from there on
            if s > SERIES_MAX_SIGNATURES or 0.0 < weight == weight * q:
                raise NoConvergence("series truncation did not certify")
    return out


def _check_certifies(q: float, eps: float) -> None:
    """Refuse q if the tail bound misses eps at s = SERIES_MAX_SIGNATURES + 1, the
    summing loop's last test: where damped < 1 the bound falls as s grows.  The
    1e-6 margin covers the loop's rounding of q^s; a subnormal q^s is left to it."""
    if q >= 1.0:
        raise NoConvergence(f"series diverges for q={q}")
    _check_q(q)
    s = SERIES_MAX_SIGNATURES + 1
    damped = q * math.exp(3.0 / (s + 2))
    weight = q**s
    if damped < 1.0 and (weight < 2.0**-1022
                         or (1.0 - q) ** 2 * weight * (s + 2) ** 3 / (1.0 - damped) < eps * (1 + 1e-6)):
        return
    raise NoConvergence(f"the series at q={q} cannot certify eps={eps} within "
                        f"{SERIES_MAX_SIGNATURES} signatures")


def avg_len_limit_closed(q: float) -> float:
    """Average pair length of the limit code:
    1 + (1/(1-q)) * sum over t >= 0 of q^(2^t) (2^t (1 - q) + 2).

    The tail is doubly exponential; terms are accumulated until they fall
    below 1e-18, well past the 1e-15 mark for any q bounded away from 1.
    """
    _check_q(q)
    acc = 0.0
    t = 0
    while True:
        term = q ** (1 << t) * ((1 << t) * (1.0 - q) + 2.0)
        acc += term
        t += 1
        if term < 1e-18 or t > 100:  # t ~ 60 suffices even for q near 1
            break
    return 1.0 + acc / (1.0 - q)
