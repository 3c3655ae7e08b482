"""Average lengths, redundancy, crossovers, and code selection.

All averages are in bits per *pair*; redundancy figures are per integer
symbol, i.e. half the pair average minus the per-symbol entropy
H(q) = h(q) / (1 - q) with h the binary entropy function.

Every family's average is a closed form: the ck code, the Golomb pair,
and the cminus code, whose order k = inf is the limit code.  No command
runs the signature-by-signature series, the design-point shortcut or the
q -> 1 asymptotics: they are test code.
"""

import math

from .basecodes import quasi_uniform_shape
from .families import K_MAX, CodeFamily, DataError, QOutOfRange, _check_q
from .fringe2 import top_code_params


class MeanOutOfRange(ValueError, DataError):
    """Sample mean that gives no plug-in estimate q in [0, 1)."""


class NoSignChange(DataError):
    """Bisection bracket does not straddle a sign change."""


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


def avg_len_cminus(q: float, k) -> float:
    """Average pair length of the order-k cminus code, k >= 2, or of the
    limit code at k = math.inf:

    1 + q(3 - q)/(1 - q) + sum over t = 1..k-2 of q^(2^t) (2^t + 2/(1 - q))
      + q^a (2^(k-1) q + 2q^2/(1 - q) - (1 - q) + P),  a = 2^(k-1) - 1.

    The average is (1-q)^2 times the sum over s of q^s ((s+1) Lambda_s +
    n_long(s)), with the rows of :func:`geompair.cminus_codec.signature_row`.
    Lambda_s + 1 is the sum of s + 2 - 2^t over t < k with 2^t - 1 <= s,
    in both regimes: the periodic one continues the line of the initial
    regime's last class.  On the initial class s = 2^i - 1 + j, n_long is
    2j + 1.  From signature a on, it depends only on the phase
    j = (s - a) mod N, N = 2^k - 1: it is 2j + 1, plus 1 at j = 2^(k-1) - 2
    and at j = N - 1, less N from j = 2^(k-1) - 1 on.  So the periodic
    regime sums over one period, in
    P = (1-q)^2 / (1 - q^N) * sum over j < N of q^j n_long(j),
    a linear-geometric sum.  Gathered by t, the initial regime gives the
    first line, and the t = k - 1 term with the boundary at a gives the
    rest of the second.

    The t-sum stops once a term falls below 1e-18 of the total: the terms
    after it, and the periodic regime, fall doubly exponentially in t.  So
    any k costs at most about 64 terms, and 2^k is built only for a k that
    the sum reaches.
    """
    _check_q(q)
    p = 1.0 - q
    total = 1.0 + q * (3.0 - q) / p
    t = 1
    while t <= k - 2:
        term = q ** (1 << t) * ((1 << t) + 2.0 / p)
        total += term
        if term < 1e-18 * total:
            return total
        t += 1
    half = 1 << (k - 1)
    full = 2 * half - 1
    q_full = q**full
    jump = half * q + 2.0 * q * q / p - p
    phases = (1.0 + q - 2.0 * full * p * q_full / (1.0 - q_full)
              + p / (1.0 - q_full) * (p * (q ** (half - 2) + q ** (full - 1))
                                      - full * q ** (half - 1) * (1.0 - q**half)))
    return total + q ** (half - 1) * (jump + phases)


def golomb_pair_avg_len(q: float, k: int) -> float:
    """Average pair length of the order-k Golomb code applied per symbol.

    The remainder of a symbol is truncated-geometric on [0, k); the
    quasi-uniform code gives its first ``short`` ranks m - 1 bits and the
    rest m bits, so its average is m - (1 - q^short) / (1 - q^k).
    """
    _check_q(q)
    m, short = quasi_uniform_shape(k)
    qk = q**k
    resid = m - (1.0 - q**short) / (1.0 - qk)
    per_symbol = resid + 1.0 + qk / (1.0 - qk)
    return 2.0 * per_symbol


def best_golomb_order(q: float) -> int:
    """Smallest k with q^k + q^(k+1) <= 1; the order-k Golomb code is the
    best Golomb code for this q (interval boundaries inclusive on the
    right, with a 1e-12 slack so that algebraic boundary points such as
    q = (sqrt 5 - 1)/2 land in the lower-order interval).

    The bound solved in logarithms gives k to within rounding; the
    predicate itself then settles it in a step or two, for any q.
    """
    _check_q(q)

    def too_small(k: int) -> bool:
        return q**k + q ** (k + 1) > 1.0 + 1e-12

    k = max(1, math.ceil((math.log1p(1e-12) - math.log1p(q)) / math.log(q)))
    while too_small(k):
        k += 1
    while k > 1 and not too_small(k - 1):
        k -= 1
    return k


def family_avg_len(family: CodeFamily, q: float, eps: float = 1e-9) -> float:
    """Average pair length of any implemented family at q, in closed form.

    No family reads ``eps``: every average is exact to rounding.  It stays
    for the benchmark's callers, which pass it.
    """
    if family.kind == "ck":
        return avg_len_ck(q, family.k)
    if family.kind == "golomb":
        return golomb_pair_avg_len(q, family.k)
    return avg_len_cminus(q, math.inf if family.kind == "limit" else family.k)


# ---------------------------------------------------------------------------
# Crossovers and adaptive selection
# ---------------------------------------------------------------------------


def crossover(avg_a, avg_b, q_lo: float, q_hi: float, tol: float = 1e-6) -> float:
    """Bisect for the q where the two average-length curves cross.

    ``avg_a`` and ``avg_b`` map q to bits per pair; their difference must
    change sign exactly once on [q_lo, q_hi].  A zero at one end is that
    crossing; curves that agree at both ends, to within rounding, do not
    make a single crossing.
    """
    if not tol > 0:  # nan too
        raise ValueError("tol must be positive")
    if not q_lo < q_hi:  # nan too
        raise ValueError(f"need q_lo < q_hi, got [{q_lo}, {q_hi}]")

    def f(q: float) -> tuple[float, bool]:
        # the gap, and whether it is rounding: closed forms of one code (golomb1 and ck1,
        # golomb2 and ck2) differ by up to about 1.2 eps / (1 - q) of their value
        a, b = avg_a(q), avg_b(q)
        return a - b, abs(a - b) * (1.0 - q) <= 16 * 2.0**-52 * min(abs(a), abs(b))

    (fa, agree_lo), (fb, agree_hi) = f(q_lo), f(q_hi)
    if agree_lo and agree_hi:
        raise NoSignChange(f"no crossing on [{q_lo}, {q_hi}]: the curves agree at both ends")
    if fa == 0.0:
        return q_lo
    if fb == 0.0:
        return q_hi
    if (fa > 0) == (fb > 0):
        raise NoSignChange(f"no sign change on [{q_lo}, {q_hi}]")
    lo, hi = q_lo, q_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: no tol below their spacing is met
            break
        fm = f(mid)[0]
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# candidate parameter ranges scanned by the selector
_SELECT_CMINUS_MAX = 10


def _ck_orders(q: float) -> range:
    """The ck orders beside k* = -1/log2 q, the order whose design point is q:
    floor(k*) - 1 to ceil(k*) + 1, clipped to [1, K_MAX], or K_MAX alone past
    K_MAX + 1.  The least ck pair average lies within 1 of k* (the tests check
    this against a wide scan), so two orders each side hold it."""
    k_star = -1.0 / math.log2(q)
    return range(min(max(1, math.floor(k_star) - 1), K_MAX), min(math.ceil(k_star) + 1, K_MAX) + 1)


def _candidates(q: float) -> list[CodeFamily]:
    cands = [CodeFamily("ck", k) for k in _ck_orders(q)]
    if q < 0.55:  # the q = 2^(-k) family is hopeless above its range
        cands += [CodeFamily("cminus", k) for k in range(2, _SELECT_CMINUS_MAX + 1)]
        cands.append(CodeFamily("limit"))
    # the Golomb pair average is unimodal in the order, so past the
    # container's largest k the best encodable order is K_MAX
    cands.append(CodeFamily("golomb", min(best_golomb_order(q), K_MAX)))
    return cands


def best_averages_by_kind(qs) -> list[tuple[float, float, float, float]]:
    """``(golomb, ck, cminus, limit)`` pair averages at each q of ``qs``:
    the best Golomb order (uncapped), the least over the ck and cminus
    orders that the selector scans at q, and the limit code."""
    return [
        (golomb_pair_avg_len(q, best_golomb_order(q)),
         min(avg_len_ck(q, k) for k in _ck_orders(q)),
         min(avg_len_cminus(q, k) for k in range(2, _SELECT_CMINUS_MAX + 1)),
         avg_len_cminus(q, math.inf))
        for q in qs
    ]


def adaptive_select(mean: float) -> CodeFamily:
    """Family minimizing the pair average at the plug-in estimate
    q = mean / (1 + mean) of the geometric parameter.

    One exact scan of the candidate families at that q, for every mean;
    mean 0 selects the limit code.  Every family it returns can be encoded:
    its ck and Golomb candidates are capped at order K_MAX.
    """
    if not 0 <= mean < math.inf:  # also rejects nan
        raise MeanOutOfRange(f"mean must be finite and >= 0, got {mean}")
    if mean == 0:
        return CodeFamily("limit")
    q = mean / (1.0 + mean)
    if q >= 1.0:
        raise MeanOutOfRange(
            f"mean {mean} is too large: its estimate q = mean / (1 + mean) rounds to 1"
        )
    best = None
    best_len = math.inf
    for fam in _candidates(q):
        length = family_avg_len(fam, q)
        if length < best_len - 1e-12:
            best, best_len = fam, length
    return best
