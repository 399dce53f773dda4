"""Closed-form secrecy engine.

Combines the per-slot collision probability with the adversary's guessing
probability into the per-slot secret-bit probability, evaluates the binomial
probability of accumulating a full key, searches for the minimum number of
transmissions, and computes the privacy-region radius around a node.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

from .adversary import pg_closed_form
from .channel import delta_mean_pathloss
from .scenario import NODE_HALF_SPACING, ScenarioConfig, build_deployment

#: Collision probability of two fair one-in-two frequency choices.
COLLISION_PROB = 0.5

#: key_probs drops binomial terms below e^-(TAIL_CUTOFF + ln(n + 1)) of the
#: mode term; the dropped mass is then below e^-TAIL_CUTOFF of the total.
TAIL_CUTOFF = 40.0

#: The most transmissions min_transmissions searches, and fhkex analyze --n
#: takes: key_probs walks O(sqrt(n log n)) terms, about 10^5 here.
MAX_N = 10**9

#: The width, in meters, to which privacy_radius narrows its bracket.
RADIUS_TOL = 1e-6

#: The most key probabilities privacy_radius evaluates: its gallops end within
#: 14 probes, as the factor 1.1^(2^j) overflows, and its narrowing halves a
#: bracket of at most 1e12 m every 5 probes, 300 to reach RADIUS_TOL. Past it,
#: RuntimeError: a search that does not end is a fault, not an infeasible request.
RADIUS_PROBES = 400


class InfeasibleError(Exception):
    """The requested target cannot be met for any admissible parameter value."""


class Probability(float):
    """A float constrained to [0, 1] on construction."""

    def __new__(cls, value: float) -> "Probability":
        v = float(value)
        if math.isnan(v) or not (0.0 <= v <= 1.0):
            raise ValueError(f"probability out of range: {value!r}")
        return super().__new__(cls, v)


def check_target(target: float) -> float:
    """A required success probability: strictly between 0 and 1 (nan is not)."""
    if not (0.0 < target < 1.0):
        raise ValueError(f"target must lie in (0, 1), got {target}")
    return target


@dataclass(frozen=True)
class KeyRequest:
    k: int  # key size, bits
    target: float = 0.99  # required success probability

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"key size must be a positive integer, got {self.k}")
        check_target(self.target)


def secret_bit_prob(p_c: float, p_g: float) -> Probability:
    """Per-slot secret-bit probability: no collision and no correct guess."""
    return Probability((1.0 - Probability(p_c)) * (1.0 - Probability(p_g)))


def window_floor(n: int) -> float:
    """The term, relative to the mode term, below which key_probs' window of n slots stops."""
    return math.exp(-TAIL_CUTOFF - math.log(n + 1))


def _walk(n: int, start: int, ratio: float, floor: float, terms: list[float]) -> list[float]:
    """terms, extended by the terms relative to the mode term walked outward
    from the mode by the ratio recursion until one falls below floor or no
    slot is left.

    Counted from the side the walk heads to, the mode has start successes:
    the mode itself upward (ratio p / q), n - mode downward (ratio q / p), as
    the downward factor i / (n - i + 1) at i = mode - j is (n - i') / (i' + 1)
    at i' = n - i.
    """
    t = 1.0
    for i in range(start, n):
        t *= (n - i) / (i + 1) * ratio
        if t < floor:
            break
        terms.append(t)
    return terms


def window_tails(
    ks: Sequence[int], n: int, mode: int, above: list[float], below: list[float] | None
) -> list[float]:
    """key_probs for every k in ks, read off one window: the terms mode, mode + 1,
    ... (above) and mode - 1, mode - 2, ... (below), relative to the mode term.

    below is None at the p_b = 1/2 mirror, where it is above[1:] for even n
    and above for odd n; then no window is copied and half of it is summed.
    """
    if below is None:
        skip = int(n == 2 * mode)  # the terms of above that below lacks
        below = above
        total = 2.0 * math.fsum([0.5, *above[1:]] if skip else above)
    else:
        skip = 0
        total = math.fsum(itertools.chain(above, below))
    hi = mode + len(above) - 1
    lo = mode - len(below) + skip
    probs = []
    for k in ks:
        if k > hi:
            probs.append(0.0)  # tail mass below the truncation bound
        elif k <= lo:
            probs.append(1.0)
        elif k > mode:
            probs.append(math.fsum(above[k - mode :]) / total)
        else:
            probs.append(1.0 - math.fsum(below[mode - k + skip :]) / total)
    return probs


def key_probs(ks: Sequence[int], n: int, p_b: float) -> list[float]:
    """P(at least k successes in n slots) for every k in ks, success probability p_b per slot.

    Binomial upper tails read off one window of terms around the mode, built
    once per (n, p_b): terms relative to the mode term 1.0, walked outward on
    each side by the exact ratio recursion, then summed largest first with
    math.fsum (correctly rounded, so the order only sets its speed). A k above
    the mode reads its in-window suffix over the window total; a k at or below
    it reads one minus its in-window prefix, so both sides sum the smaller
    part. Exact 1 for k = 0 and exact 0 for k > n.

    Truncation bound. The window keeps the terms t_i >= e^-C t_mode, with
    C = TAIL_CUTOFF + ln(n + 1). Binomial terms are log-concave in i, so they
    fall monotonically on both sides of the mode and the kept terms are
    contiguous. Each dropped term is below e^-C t_mode <= e^-C T, T being the
    total mass, and fewer than n + 1 are dropped, so the dropped mass D is
    below (n + 1) e^-C T = e^-TAIL_CUTOFF T. For the window total W, a k
    inside the window with in-window suffix U and dropped suffix U' <= D,
    the result U / W misses the exact (U + U') / (W + D) by
    |U D - U' W| / (W (W + D)) <= D / (W + D) < e^-TAIL_CUTOFF (about 4e-18),
    for every n; the prefix form errs by the same bound. A k below the window
    gets 1 and one above it gets 0, within the same bound.

    Mirror at p_b = 1/2. Then p == q, both walk ratios are exactly 1.0, and the
    downward factor i / (n - i + 1) at i = mode - j is the very float division
    of the upward factor (n - i') / (i' + 1) at i' = mode + j for even n
    (mode = n / 2), and at i' = mode + j - 1 for odd n (mode = (n + 1) / 2, so
    the first downward factor is mode / mode = 1). The downward walk therefore
    multiplies the same factors in the same order, takes as many steps and
    stops at the same floor: its terms are above[1:] for even n and above[:]
    for odd n, bit for bit. The mirror is taken only when the integers confirm
    the mode (n - 2 mode is 0 or -1); otherwise the window is walked down too.
    No half is copied, and the window total fsum(above + below) is
    2 fsum([0.5, *above[1:]]) for even n and 2 fsum(above) for odd n, exactly:
    the exact sum is twice the half's, fsum rounds it correctly, and doubling
    a float is exact, so it commutes with rounding.

    The pure-Python reference of experiments' batched walk, which walks the
    windows of many n at once with the same float operations in the same
    order and reads them through the same window_tails, bit for bit.

    Returns plain floats in [0, 1], by construction: the terms are positive
    and fsum is correctly rounded, so a part's sum is at most the window
    total and part / total at most 1.
    """
    if not isinstance(n, int) or not all(isinstance(k, int) for k in ks):
        raise ValueError("k and n must be integers")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if (least := min(ks, default=0)) < 0:
        raise ValueError(f"k must be >= 0, got {least}")
    p = float(p_b)
    if not 0.0 <= p <= 1.0:  # nan too
        raise ValueError(f"probability out of range: {p_b!r}")
    if p == 0.0 or p == 1.0:
        certain = 0 if p == 0.0 else n  # the one possible success count
        return [1.0 if k <= certain else 0.0 for k in ks]

    q = 1.0 - p
    mode, floor = min(n, int((n + 1) * p)), window_floor(n)
    above = _walk(n, mode, p / q, floor, [1.0])
    if p == q and n - 2 * mode in (0, -1):
        return window_tails(ks, n, mode, above, None)  # the mirror at p_b = 1/2
    return window_tails(ks, n, mode, above, _walk(n, n - mode, q / p, floor, []))


def key_prob(k: int, n: int, p_b: float) -> float:
    """P(at least k successes in n slots), success probability p_b per slot.

    The one-k case of key_probs.
    """
    (prob,) = key_probs((k,), n, p_b)
    return prob


def _poisson_log_tails(k: int, x: float) -> tuple[float, float]:
    """(log P(X >= k), log P(X <= k - 1)) for X ~ Poisson(x), k >= 1, x > 0.

    The tail on the far side of k from the mode is summed, from its term
    next to k, until the terms fall below e^-TAIL_CUTOFF of the sum. It
    lies past the mode and holds under two thirds of the mass, so the other
    tail, one minus it, keeps its precision.
    """
    s, t = 1.0, 1.0  # the summed tail relative to its first term
    floor = math.exp(-TAIL_CUTOFF)
    if x < k:  # P(X >= k): terms k, k + 1, ...
        j = k
        while t > floor * s:
            j += 1
            t *= x / j
            s += t
        upper = k * math.log(x) - x - math.lgamma(k + 1) + math.log(s)
        return upper, math.log1p(-math.exp(upper))
    j = k - 1  # P(X <= k - 1): terms k - 1, k - 2, ..., 0
    while j > 0 and t > floor * s:
        t *= j / x
        s += t
        j -= 1
    lower = (k - 1) * math.log(x) - x - math.lgamma(k) + math.log(s)
    return math.log1p(-math.exp(lower)), lower


def _gamma_quantile(k: int, prob: float) -> float:
    """x with P(Gamma(k, 1) <= x) = prob, for k >= 1 and 0 < prob < 1.

    Gamma(k, 1) is at most x iff Poisson(x) is at least k, so x is the root
    of a Poisson tail. Newton steps in log x on the log of the tail that
    holds prob's smaller side, from the Wilson-Hilferty cube-root
    approximation, or from the small-x limit x^k / k! = prob where that
    approximation is not positive. Gamma(1, 1) is exponential: -log(1 - prob).
    """
    if k == 1:
        return -math.log1p(-prob)
    base = 1.0 - 1.0 / (9.0 * k) + NormalDist().inv_cdf(prob) / (3.0 * math.sqrt(k))
    if base > 0.0:
        u = math.log(k) + 3.0 * math.log(base)
    else:
        u = (math.log(prob) + math.lgamma(k + 1)) / k
    upper = prob <= 0.5
    goal = math.log(prob) if upper else math.log1p(-prob)
    for _ in range(50):  # converges in a few steps; the cap only bounds the loop
        x = math.exp(u)
        log_upper, log_lower = _poisson_log_tails(k, x)
        # d log P(X >= k) / d log x = x pmf(k - 1) / P(X >= k), and
        # d log P(X <= k - 1) / d log x = -x pmf(k - 1) / P(X <= k - 1)
        log_density = k * u - x - math.lgamma(k)  # log(x pmf(k - 1))
        if upper:
            step = (goal - log_upper) / math.exp(log_density - log_upper)
        else:
            step = (log_lower - goal) / math.exp(log_density - log_lower)
        step = max(-1.0, min(1.0, step))
        u += step
        if abs(step) < 1e-9:  # above the rounding of the log tails, for k up to MAX_N
            break
    return math.exp(u)


def min_transmissions(req: KeyRequest, p_b: float) -> int:
    """Smallest n with key_prob(req.k, n, p_b) >= req.target.

    The first probe is a target quantile of the waiting time T for k
    successes, q = 1 - p_b. Each success waits ceil(E) slots, E exponential
    with rate lam = -log(q), so T is a sum of k such ceilings. At k = 1, and
    at p_b <= 0.1 with k p_b < 50 (the Poisson limit), the probe is
    G / lam + (k - 1) c: G the Gamma(k, 1) target quantile and
    c = 1 / p_b - 1 / lam, about 1/2, the mean excess of a ceiling over its
    exponential, for every success but the last, whose ceiling is the
    probe's own rounding up. At k = 1 that is the geometric quantile
    log(1 - target) / log(q), which is exact. Above p_b = 0.1, where T's
    discreteness shows, and at k p_b >= 50, where the k excesses no longer
    add up to a flat (k - 1) c (p_b = 0.1 and k >= 512 took 4 evaluations
    from it, 2 from Cornish-Fisher), the probe is the Cornish-Fisher
    quantile of the negative binomial T: mean k / p, standard deviation
    sqrt(k q) / p and skewness (1 + q) / sqrt(k q).
    From there the search gallops outward in steps 1, 2, 4, ... until the
    answer is bracketed, then binary searches; the tail is monotone
    non-decreasing in n, so the bracket and the answer are exact.
    """
    p = float(Probability(p_b))
    if p == 0.0:
        raise InfeasibleError("p_b = 0: no number of transmissions can generate a key")
    k = req.k

    def met(n: int) -> bool:
        return key_prob(k, n, p) >= req.target

    q = 1.0 - p
    if q > 0.0 and (k == 1 or (p <= 0.1 and k * p < 50.0)) and k <= MAX_N:
        # at p_b = 1, log(q) does not exist; above MAX_N no key fits
        lam = -math.log1p(-p)
        # (G + (k - 1) (lam / p - 1)) / lam: no 1 / p that overflows
        quantile = (_gamma_quantile(k, req.target) + (k - 1) * (lam / p - 1.0)) / lam
    else:
        z = NormalDist().inv_cdf(req.target)
        # mean + sd (z + skew (z^2 - 1) / 6), where sd * skew = (1 + q) / p, less a continuity correction
        quantile = (k + z * math.sqrt(k * q) + (z * z - 1.0) * (1.0 + q) / 6.0) / p - 0.5
    start = math.ceil(min(max(quantile, k), MAX_N))
    step = 1
    if met(start):
        hi = start
        lo = max(hi - 1, k - 1)  # no key fits in k - 1 slots
        while lo > k - 1 and met(lo):
            hi, step = lo, 2 * step
            lo = max(hi - step, k - 1)
    else:
        lo = start
        while True:
            if lo >= MAX_N:
                raise InfeasibleError(f"target {req.target} not reached below n = {MAX_N}")
            hi = min(lo + step, MAX_N)
            if met(hi):
                break
            lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if met(mid):
            hi = mid
        else:
            lo = mid
    return hi


def fading_pb(d_be: float, sigma: float, gamma: float = ScenarioConfig.gamma) -> Probability:
    """Per-slot secret-bit probability for the collinear geometry.

    The adversary sits d_be behind one node (scenario.build_deployment); her
    guessing probability is the pairwise-ML closed form.
    """
    delta = delta_mean_pathloss(*build_deployment(d_be), gamma)
    return secret_bit_prob(COLLISION_PROB, pg_closed_form(delta, sigma))


def _log_odds(prob: float) -> float:
    """ln(prob / (1 - prob)), infinite at 0 and 1."""
    if prob <= 0.0 or prob >= 1.0:
        return math.copysign(math.inf, prob - 0.5)
    return math.log(prob) - math.log1p(-prob)


def _radius_guess(req: KeyRequest, n: int, sigma: float, gamma: float) -> float:
    """Where a normal approximation puts the privacy radius: the search's first probe.

    The secret-bit count meets the target at the p_b whose 1 - target
    quantile, by Cornish-Fisher with a continuity correction, is k - 1/2:
    k - 1/2 = n p_b - z sqrt(n p_b (1 - p_b)) + s (1 - 2 p_b), z the target's
    normal quantile and s = (z^2 - 1) / 6, as the skewness times the standard
    deviation is 1 - 2 p_b. With m = n + 2 s, c = (k - 1/2 - s) / m and
    a = z^2 n / m^2 that is a Wilson bound, p_b = (c + a / 2 + z sqrt(n) / m
    sqrt(c (1 - c) + a / 4)) / (1 + a). At target 0.999999 (k 64-256,
    n 400-20,000, sigma 2-8) the search took up to 14 probes without s, the
    binomial's skew, and 11 with it. Inverting p_g (the pairwise-ML closed
    form) and the collinear geometry, d_ae = d_be + 50, gives the distance.
    Its error costs probes, not accuracy.
    """
    z = NormalDist().inv_cdf(req.target)
    s = (z * z - 1.0) / 6.0
    m = n + 2.0 * s
    c = min(max((req.k - 0.5 - s) / m, 0.0), 1.0)
    a = z * z * n / (m * m)
    p_b = (c + 0.5 * a + z * math.sqrt(n) / m * math.sqrt(c * (1.0 - c) + 0.25 * a)) / (1.0 + a)
    p_g = 1.0 - p_b / (1.0 - COLLISION_PROB)
    if not p_g > 0.5:
        return math.inf
    if not p_g < 1.0:
        return 0.0
    delta = sigma * math.sqrt(2.0) * NormalDist().inv_cdf(p_g)  # PL(d_ae) - PL(d_be), dB
    return 2 * NODE_HALF_SPACING / math.expm1(min(delta * math.log(10.0) / (10.0 * gamma), 700.0))


def privacy_radius(
    req: KeyRequest,
    n: int,
    sigma: float,
    gamma: float = ScenarioConfig.gamma,
    d_min: float = ScenarioConfig.d0,
) -> float:
    """Smallest radius R, around the node the adversary approaches, such that
    every adversary distance above R meets the key target with n transmissions.

    The secret-bit probability, and hence the key probability, is increasing
    in the adversary distance. A bracket lo < R <= hi (target unmet at lo,
    met at hi) is found by galloping from a normal approximation of R
    (_radius_guess) by factors 1.1, 1.21, 1.46, ..., each the last one
    squared, no lower than d_min and no higher than the far proxy of an
    infinitely remote adversary. It is then narrowed to RADIUS_TOL by regula
    falsi with Illinois halving on the log-odds of the key probability
    minus those of the target. Every probe lies at least RADIUS_TOL / 2
    inside the bracket, so once the estimate stops moving a closing step of
    RADIUS_TOL / 2 crosses the root; when four probes have not halved the bracket,
    the next one bisects it (Illinois needs three probes to pull a stuck
    end). Where floats are sparser than RADIUS_TOL (above 2^32 m) it stops
    at two floats' spacing. Raises InfeasibleError when the target is unmet
    even for an arbitrarily remote adversary, and RuntimeError past
    RADIUS_PROBES probes.
    """
    if n < req.k:
        raise InfeasibleError(f"n = {n} transmissions cannot yield a {req.k}-bit key")
    probes = itertools.count(1)

    def prob(d_be: float) -> float:
        if next(probes) > RADIUS_PROBES:
            raise RuntimeError(
                f"privacy_radius did not end within {RADIUS_PROBES} probes: "
                "the key probability is not increasing in the adversary distance"
            )
        return key_prob(req.k, n, fading_pb(d_be, sigma, gamma))

    far = 1e12  # proxy for the d_be -> infinity limit
    if prob(far) < req.target:
        raise InfeasibleError(
            f"target {req.target} unreachable for k={req.k}, n={n}, sigma={sigma}"
        )
    lo = hi = min(max(_radius_guess(req, n, sigma, gamma), d_min), far)
    factor = 1.1  # the first gallop step; each later one squares the last
    if (p_hi := prob(hi)) >= req.target:
        while hi > d_min and (p_lo := prob(lo := max(hi / factor, d_min))) >= req.target:
            hi, p_hi, factor = lo, p_lo, factor * factor
        if hi == d_min:
            return d_min
    else:
        p_lo = p_hi
        while (p_hi := prob(hi := min(lo * factor, far))) < req.target:
            lo, p_lo, factor = hi, p_hi, factor * factor

    odds = _log_odds(req.target)
    f_lo, f_hi = _log_odds(p_lo) - odds, _log_odds(p_hi) - odds
    before = [math.inf] * 4  # bracket widths before the last four probes
    moved = 0  # the end the last probe moved: +1 hi, -1 lo
    while hi - lo > max(RADIUS_TOL, 2.0 * math.ulp(hi)):  # then a probe lies strictly inside
        width = hi - lo
        mid = lo + 0.5 * width  # bisection, unless the secant is usable
        if f_hi > f_lo and width <= 0.5 * before[0]:
            secant = hi - f_hi * width / (f_hi - f_lo)
            if lo < secant < hi:
                mid = secant
        mid = min(max(mid, lo + 0.5 * RADIUS_TOL), hi - 0.5 * RADIUS_TOL)  # the closing step
        before = before[1:] + [width]
        p_mid = prob(mid)
        f_mid = _log_odds(p_mid) - odds
        if p_mid >= req.target:
            hi, f_hi = mid, f_mid
            if moved > 0:
                f_lo *= 0.5  # Illinois: lo kept twice running
            moved = 1
        else:
            lo, f_lo = mid, f_mid
            if moved < 0:
                f_hi *= 0.5
            moved = -1
    return hi
