"""Average lengths, redundancy, crossovers, and code selection.

All averages are in bits per *pair*; redundancy figures are per integer
symbol, i.e. half the pair average minus the per-symbol entropy
H(q) = h(q) / (1 - q) with h the binary entropy function.

Where a closed form exists (the design-point family, the limit code, the
Golomb pair) it is used; the remaining families are summed signature by
signature with a certified geometric tail bound.  No command runs the
design-point shortcut or the q -> 1 asymptotics: they are test code.
"""

import math

from .basecodes import quasi_uniform_shape
from .families import K_MAX, CodeFamily, DataError, QOutOfRange, _check_q, make_codec
from .fringe2 import top_code_params

SERIES_MAX_SIGNATURES = 5_000_000  # a series not certified past it raises NoConvergence


class NoConvergence(DataError):
    """A series cannot converge for the given parameter."""


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


# ---------------------------------------------------------------------------
# The certified series evaluator
# ---------------------------------------------------------------------------


def avg_len_by_series(codec, q: float, eps: float = 1e-9) -> float:
    """(1-q)^2 * sum over s of q^s * (total code length of signature s),
    summed from ``codec.signature_lengths`` and truncated once a certified
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
    lengths = codec.signature_lengths
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


def family_avg_len(family: CodeFamily, q: float, eps: float = 1e-9) -> float:
    """Average pair length of any implemented family at q (closed form
    where available, certified series otherwise)."""
    if family.kind == "ck":
        return avg_len_ck(q, family.k)
    if family.kind == "limit":
        return avg_len_limit_closed(q)
    if family.kind == "golomb":
        return golomb_pair_avg_len(q, family.k)
    return avg_len_by_series(make_codec(family), q, eps)


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
_SELECT_CK_MAX = 64
_SELECT_CMINUS_MAX = 10
_SELECT_SERIES_EPS = 1e-8


def _candidates(q: float) -> list[CodeFamily]:
    cands = [CodeFamily("ck", k) for k in range(1, _SELECT_CK_MAX + 1)]
    if q < 0.55:  # the q = 2^(-k) family is hopeless above its range
        cands += [CodeFamily("cminus", k) for k in range(2, _SELECT_CMINUS_MAX + 1)]
        cands.append(CodeFamily("limit"))
    # the Golomb pair average is unimodal in the order, so past the
    # container's largest k the best encodable order is K_MAX
    cands.append(CodeFamily("golomb", min(best_golomb_order(q), K_MAX)))
    return cands


def best_averages_by_kind(qs, eps: float = 1e-9) -> list[tuple[float, float, float, float]]:
    """``(golomb, ck, cminus, limit)`` pair averages at each q of ``qs``:
    the best Golomb order (uncapped), the least over the ck and cminus
    orders that the selector scans, and the limit code.  Each cminus order
    is summed over all of ``qs`` at once, each signature's lengths once."""
    cminus_by_order = [
        avg_lens_by_series(make_codec(CodeFamily("cminus", k)), qs, eps)
        for k in range(2, _SELECT_CMINUS_MAX + 1)
    ]
    return [
        (golomb_pair_avg_len(q, best_golomb_order(q)),
         min(avg_len_ck(q, k) for k in range(1, _SELECT_CK_MAX + 1)),
         min(lens[index] for lens in cminus_by_order),
         avg_len_limit_closed(q))
        for index, q in enumerate(qs)
    ]


def adaptive_select(mean: float) -> CodeFamily:
    """Family minimizing the pair average at the plug-in estimate
    q = mean / (1 + mean) of the geometric parameter.

    One exact scan of the candidate families at that q, for every mean;
    mean 0 selects the limit code.  Every family it returns can be encoded:
    from mean 94547.24 on, the Golomb candidate is capped at order K_MAX.
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
        length = family_avg_len(fam, q, _SELECT_SERIES_EPS)
        if length < best_len - 1e-12:
            best, best_len = fam, length
    return best
