"""Average lengths, redundancy, asymptotics, and code selection.

All averages are in bits per *pair*; redundancy figures are per integer
symbol, i.e. half the pair average minus the per-symbol entropy
H(q) = h(q) / (1 - q) with h the binary entropy function.

Where a closed form exists (the design-point family, the limit code, the
Golomb pair) it is used; the remaining families are summed signature by
signature with a certified geometric tail bound.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache

from .cminus_codec import limit_row, signature_row
from .basecodes import QuasiUniformSpec, golomb_length
from .families import CodeFamily
from .fringe2 import TopCode, top_code_params

LOG2E = math.log2(math.e)


class QOutOfRange(ValueError):
    """Parameter q outside the open interval (0, 1)."""


class NoConvergence(Exception):
    """A series cannot converge for the given parameter."""


class NoSignChange(Exception):
    """Bisection bracket does not straddle a sign change."""


def _check_q(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise QOutOfRange(f"q={q} outside (0, 1)")


def entropy_per_symbol(q: float) -> float:
    """H(q) = h(q) / (1 - q), bits per integer symbol."""
    _check_q(q)
    h = -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)
    return h / (1.0 - q)


def redundancy_per_symbol(avg_pair: float, q: float) -> float:
    return 0.5 * avg_pair - entropy_per_symbol(q)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def avg_len_ck(q: float, k: int) -> float:
    """Average pair length of the order-k design-point code at arbitrary q.

    M + 1 + q^j V(q) / (1 - q^k)^2 with
    V(q) = 1 - q^(k+1) + (1-q)(q^(k+1)(k-j-1) + j)
         + (1-q)^2 (q^k (2r + D) - r),
    where (M, j, r, D) are the top-code parameters of order k.
    """
    _check_q(q)
    p = top_code_params(k)
    j, r, d = p.j, p.r, p.delta_j
    v = (
        1.0
        - q ** (k + 1)
        + (1.0 - q) * (q ** (k + 1) * (k - j - 1) + j)
        + (1.0 - q) ** 2 * (q**k * (2 * r + d) - r)
    )
    return p.M + 1 + q**j * v / (1.0 - q**k) ** 2


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


def golomb_pair_avg_len(q: float, k: int) -> float:
    """Average pair length of the order-k Golomb code applied per symbol."""
    _check_q(q)
    spec = QuasiUniformSpec.for_size(k)
    resid = sum(spec.length_of(r) * q**r for r in range(k)) * (1 - q) / (1 - q**k)
    per_symbol = resid + 1.0 + q**k / (1.0 - q**k)
    return 2.0 * per_symbol


def best_golomb_order(q: float) -> int:
    """Smallest k with q^k + q^(k+1) <= 1; the order-k Golomb code is the
    best Golomb code for this q (interval boundaries inclusive on the
    right, with a 1e-12 slack so that algebraic boundary points such as
    q = (sqrt 5 - 1)/2 land in the lower-order interval)."""
    _check_q(q)
    k = 1
    while q**k + q ** (k + 1) > 1.0 + 1e-12:
        k += 1
    return k


# ---------------------------------------------------------------------------
# Signature length models and the certified series evaluator
# ---------------------------------------------------------------------------


class CminusLengthModel:
    """Per-signature lengths of the order-k code for q = 2^(-k)."""

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError("k must be >= 2")
        self.k = k
        self.quad_majorant_from = max(k, 4)

    def row_total(self, s: int) -> int:
        lam, n_short, n_long, _ = signature_row(self.k, s)
        return lam * n_short + (lam + 1) * n_long


class LimitLengthModel:
    """Per-signature lengths of the limit code."""

    quad_majorant_from = 4

    def row_total(self, s: int) -> int:
        row = limit_row(s)
        return row.lam * row.n_short + (row.lam + 1) * row.n_long


class GolombPairLengthModel:
    """Per-signature lengths of the symbol-by-symbol order-k Golomb code."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.quad_majorant_from = max(k, 4)
        self._prefix = [golomb_length(k, 0)]  # prefix sums of golomb_length

    def _prefix_to(self, s: int) -> int:
        while len(self._prefix) <= s:
            self._prefix.append(
                self._prefix[-1] + golomb_length(self.k, len(self._prefix))
            )
        return self._prefix[s]

    def row_total(self, s: int) -> int:
        # sum over i of len(i) + len(s - i) = twice the prefix sum
        return 2 * self._prefix_to(s)


class CkLengthModel:
    """Per-signature lengths of the order-k design-point code."""

    def __init__(self, k: int) -> None:
        self.k = k
        self._top = TopCode(k)
        self.quad_majorant_from = max(top_code_params(k).M + 3, 4)

    def row_total(self, s: int) -> int:
        k = self.k
        # unary parts: 2(s+1) stop bits plus both quotient sums
        quot, rem = divmod(s + 1, k)
        total = 2 * (s + 1) + 2 * (k * quot * (quot - 1) // 2 + rem * quot)
        # top parts, grouped by residue of i
        for a in range(min(k, s + 1)):
            count = (s - a) // k + 1
            total += self._top.codeword(a, (s - a) % k)[1] * count
        return total


def avg_len_by_series(model, q: float, eps: float = 1e-9) -> float:
    """(1-q)^2 * sum over s of q^s * (total code length of signature s),
    truncated once a certified tail bound drops below eps.

    The bound uses the model contract that its maximal codeword length at
    signature s is at most (s+2)^2 for all s >= model.quad_majorant_from,
    so the tail beyond S is at most q^S (S+2)^3 / (1 - q e^(3/(S+2)))
    signature-weight units.  The returned value has absolute error < eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if q >= 1.0:
        raise NoConvergence(f"series diverges for q={q}")
    _check_q(q)
    scale = (1.0 - q) ** 2
    total = 0.0
    qs = 1.0
    s = 0
    start = max(model.quad_majorant_from, 4)
    while True:
        row_total = model.row_total(s)
        if s >= start and row_total > (s + 2) ** 3:
            raise AssertionError("length model violates its growth contract")
        total += qs * row_total
        s += 1
        qs *= q
        if s >= start:
            damped = q * math.exp(3.0 / (s + 2))
            if damped < 1.0:
                tail = qs * (s + 2) ** 3 / (1.0 - damped)
                if scale * tail < eps:
                    return scale * total
        if s > 5_000_000:
            raise NoConvergence("series truncation did not certify")


def family_avg_len(family: CodeFamily, q: float, eps: float = 1e-9) -> float:
    """Average pair length of any implemented family at q (closed form
    where available, certified series otherwise)."""
    if family.kind == "ck":
        return avg_len_ck(q, family.k)
    if family.kind == "limit":
        return avg_len_limit_closed(q)
    if family.kind == "golomb":
        return golomb_pair_avg_len(q, family.k)
    return avg_len_by_series(CminusLengthModel(family.k), q, eps)


# ---------------------------------------------------------------------------
# Asymptotics of the design-point family as q -> 1
# ---------------------------------------------------------------------------


def _level_ratio(k: int) -> float:
    """2^M / k^2 for the order-k top code; sweeps (3/4, 3/2) as k grows."""
    n = k * k
    big_q = n - (k * (k - 1) + 3) // 4
    big_m = (big_q - 1).bit_length()
    return (1 << big_m) / n


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
# Crossovers and adaptive selection
# ---------------------------------------------------------------------------


def crossover(avg_a, avg_b, q_lo: float, q_hi: float, tol: float = 1e-6) -> float:
    """Bisect for the q where the two average-length curves cross.

    ``avg_a`` and ``avg_b`` map q to bits per pair; their difference must
    change sign exactly once on [q_lo, q_hi].
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def f(q: float) -> float:
        return avg_a(q) - avg_b(q)

    fa, fb = f(q_lo), f(q_hi)
    if fa == 0.0:
        return q_lo
    if fb == 0.0:
        return q_hi
    if (fa > 0) == (fb > 0):
        raise NoSignChange(f"no sign change on [{q_lo}, {q_hi}]")
    lo, hi = q_lo, q_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# candidate parameter ranges scanned by the selector
_SELECT_CK_MAX = 64
_SELECT_CMINUS_MAX = 10
_SELECT_SERIES_EPS = 1e-8


def _candidates(q: float) -> list[CodeFamily]:
    cands = [CodeFamily("ck", k) for k in range(1, _SELECT_CK_MAX + 1)]
    if q < 0.55:  # the q = 2^(-k) family is hopeless above its range
        cands += [CodeFamily("cminus", k) for k in range(2, _SELECT_CMINUS_MAX + 1)]
        cands.append(CodeFamily("limit"))
    cands.append(CodeFamily("golomb", best_golomb_order(q)))
    return cands


def _best_family_direct(q: float) -> CodeFamily:
    best = None
    best_len = math.inf
    for fam in _candidates(q):
        length = family_avg_len(fam, q, _SELECT_SERIES_EPS)
        if length < best_len - 1e-12:
            best, best_len = fam, length
    assert best is not None
    return best


def _winner_chain(f0: CodeFamily, f1: CodeFamily) -> list[CodeFamily]:
    """Families that may win between neighbouring grid winners f0 and f1.

    Between ck k0 and ck k1 each intermediate ck k can win on an interval
    narrower than the grid step; any other change of winner is direct.
    """
    if f0.kind == f1.kind == "ck" and f1.k > f0.k + 1:
        return [CodeFamily("ck", k) for k in range(f0.k, f1.k + 1)]
    return [f0, f1]


def _crossover_between(f0: CodeFamily, f1: CodeFamily, q0: float, q1: float) -> float:
    """Where f0 and f1 cross on [q0, q1]; the midpoint if they do not."""
    try:
        return crossover(
            lambda q: family_avg_len(f0, q, _SELECT_SERIES_EPS),
            lambda q: family_avg_len(f1, q, _SELECT_SERIES_EPS),
            q0,
            q1,
            1e-6,
        )
    except NoSignChange:
        return 0.5 * (q0 + q1)


@lru_cache(maxsize=1)
def _selection_thresholds() -> tuple[list[float], list[CodeFamily]]:
    """Precomputed selection table on the mean axis.

    Scans a q grid, finds where the winning family changes, refines each
    boundary by bisecting neighbouring winners' average-length difference,
    and stores the boundaries as sample means (q / (1 - q)).  Bucket i
    holds the best family for means below ``bounds[i]``.  Where the
    winner jumps over ck parameters between two grid points, the lower
    envelope of the whole chain is bisected: a family whose crossover
    with its successor does not lie above its own lower boundary never
    wins and is dropped.
    """
    grid = [0.02 + 0.0025 * i for i in range(int((0.985 - 0.02) / 0.0025) + 1)]
    winners = [_best_family_direct(q) for q in grid]
    bounds: list[float] = []
    fams: list[CodeFamily] = [winners[0]]
    for (q0, f0), (q1, f1) in zip(zip(grid, winners), zip(grid[1:], winners[1:])):
        if f1 == f0:
            continue
        local_bounds: list[float] = []
        local_fams = [f0]
        for fam in _winner_chain(f0, f1)[1:]:
            q_star = _crossover_between(local_fams[-1], fam, q0, q1)
            while local_bounds and q_star <= local_bounds[-1]:
                local_fams.pop()
                local_bounds.pop()
                q_star = _crossover_between(local_fams[-1], fam, q0, q1)
            local_bounds.append(q_star)
            local_fams.append(fam)
        bounds += [q / (1.0 - q) for q in local_bounds]
        fams += local_fams[1:]
    return bounds, fams


def adaptive_select(mean: float) -> CodeFamily:
    """Family minimizing the pair average at the plug-in estimate
    q = mean / (1 + mean) of the geometric parameter.

    Uses the precomputed mean-axis thresholds where they apply and falls
    back to a direct scan outside the tabulated range.
    """
    if mean < 0:
        raise ValueError("mean must be >= 0")
    if mean == 0:
        return CodeFamily("limit")
    qhat = mean / (1.0 + mean)
    if 0.02 <= qhat <= 0.985:
        bounds, fams = _selection_thresholds()
        return fams[bisect.bisect_left(bounds, mean)]
    return _best_family_direct(qhat)
