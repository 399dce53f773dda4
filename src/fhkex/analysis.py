"""Closed-form secrecy engine.

Combines the per-slot collision probability with the adversary's guessing
probability into the per-slot secret-bit probability, evaluates the binomial
probability of accumulating a full key, searches for the minimum number of
transmissions, and computes the privacy-region radius around a node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adversary import pg_closed_form
from .channel import delta_mean_pathloss
from .scenario import NODE_HALF_SPACING, Position

#: Collision probability of two fair one-in-two frequency choices.
COLLISION_PROB = 0.5

#: key_probs drops binomial terms below e^-(TAIL_CUTOFF + ln(n + 1)) of the
#: mode term; the dropped mass is then below e^-TAIL_CUTOFF of the total.
TAIL_CUTOFF = 40.0


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


@dataclass(frozen=True)
class PrivacyRegion:
    """Circle around a node outside which the key target is always met."""

    center: Position
    radius: float  # meters

    def __post_init__(self):
        if not (self.radius >= 0.0):
            raise ValueError(f"radius must be >= 0, got {self.radius}")


def secret_bit_prob(p_c: float, p_g: float) -> Probability:
    """Per-slot secret-bit probability: no collision and no correct guess."""
    return Probability((1.0 - Probability(p_c)) * (1.0 - Probability(p_g)))


def key_probs(ks: Sequence[int], n: int, p_b: float) -> list[Probability]:
    """P(at least k successes in n slots) for every k in ks, success probability p_b per slot.

    Binomial upper tails read off one window of terms around the mode, built
    once per (n, p_b): log-domain terms by exact ratio recursion, then
    compensated (fsum) sums of the window total and of each k's suffix; the
    window total self-normalizes the mode term. Exact 1 for k = 0 and exact
    0 for k > n.

    Truncation bound. The window keeps the terms t_i >= e^-C t_mode, with
    C = TAIL_CUTOFF + ln(n + 1). Binomial terms are log-concave in i, so they
    fall monotonically on both sides of the mode and the kept terms are
    contiguous. Each dropped term is below e^-C t_mode <= e^-C T, T being the
    total mass, and fewer than n + 1 are dropped, so the dropped mass D is
    below (n + 1) e^-C T = e^-TAIL_CUTOFF T. For the window total W, a k
    inside the window with in-window suffix U and dropped suffix U' <= D,
    the result U / W misses the exact (U + U') / (W + D) by
    |U D - U' W| / (W (W + D)) <= D / (W + D) < e^-TAIL_CUTOFF (about 4e-18),
    for every n. A k below the window gets 1 and one above it gets 0, within
    the same bound.
    """
    if not isinstance(n, int) or not all(isinstance(k, int) for k in ks):
        raise ValueError("k and n must be integers")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if any(k < 0 for k in ks):
        raise ValueError(f"k must be >= 0, got {min(ks)}")
    p = float(Probability(p_b))
    if p == 0.0 or p == 1.0:
        certain = 0 if p == 0.0 else n  # the one possible success count
        return [Probability(1.0 if k <= certain else 0.0) for k in ks]

    q = 1.0 - p
    log_p, log_q = math.log(p), math.log(q)
    cutoff = TAIL_CUTOFF + math.log(n + 1)
    mode = min(n, int((n + 1) * p))
    half_width = int(math.sqrt(2.0 * cutoff * max(n * p * q, 1.0))) + 60
    while True:
        lo = max(0, mode - half_width)
        hi = min(n, mode + half_width)
        iu = np.arange(mode, hi, dtype=np.float64)
        log_up = np.cumsum(np.log((n - iu) / (iu + 1.0)) + (log_p - log_q))
        idn = np.arange(mode, lo, -1, dtype=np.float64)
        log_down = np.cumsum(np.log(idn / (n - idn + 1.0)) + (log_q - log_p))
        # log term_i relative to the mode term, for i = lo..hi
        logs = np.concatenate([log_down[::-1], [0.0], log_up])
        if (lo == 0 or logs[0] < -cutoff) and (hi == n or logs[-1] < -cutoff):
            break
        half_width *= 2

    kept = np.flatnonzero(logs >= -cutoff)
    hi = lo + int(kept[-1])
    lo += int(kept[0])
    terms = np.exp(logs[kept[0] : kept[-1] + 1]).tolist()
    total = math.fsum(terms)
    probs = []
    for k in ks:
        if k > hi:
            probs.append(Probability(0.0))  # tail mass below the truncation bound
        elif k <= lo:
            probs.append(Probability(1.0))
        else:
            probs.append(Probability(min(math.fsum(terms[k - lo :]) / total, 1.0)))
    return probs


def key_prob(k: int, n: int, p_b: float) -> Probability:
    """P(at least k successes in n slots), success probability p_b per slot.

    The one-k case of key_probs.
    """
    (prob,) = key_probs((k,), n, p_b)
    return prob


def min_transmissions(req: KeyRequest, p_b: float, max_n: int = 10**9) -> int:
    """Smallest n with key_prob(req.k, n, p_b) >= req.target.

    Gallops up from the mean waiting time k / p_b for k successes, in steps
    that start at its standard deviation sqrt(k (1 - p_b)) / p_b and
    double, then binary search; the tail is monotone non-decreasing in n, so
    the bracket and the answer are exact.
    """
    p = float(Probability(p_b))
    if p == 0.0:
        raise InfeasibleError("p_b = 0: no number of transmissions can generate a key")
    k = req.k

    def met(n: int) -> bool:
        return key_prob(k, n, p) >= req.target

    step = max(1, int(min(math.sqrt(k * (1.0 - p)) / p, max_n)))
    lo = max(k, math.ceil(min(k / p, max_n)))
    if met(lo):
        lo, hi = k - 1, lo  # no key fits in k - 1 slots
    else:
        while True:
            if lo >= max_n:
                raise InfeasibleError(f"target {req.target} not reached below n = {max_n}")
            hi = min(lo + step, max_n)
            if met(hi):
                break
            lo = hi
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if met(mid):
            hi = mid
        else:
            lo = mid
    return hi


def fading_pb(
    d_be: float,
    sigma: float,
    gamma: float = 3.5,
    d_ab: float = 2 * NODE_HALF_SPACING,
) -> Probability:
    """Per-slot secret-bit probability for the collinear deployment.

    The adversary sits d_be behind one node, hence d_ae = d_be + d_ab; her
    guessing probability is the pairwise-ML closed form.
    """
    if not (d_be > 0.0):
        raise ValueError(f"d_be must be positive, got {d_be}")
    delta = delta_mean_pathloss(d_be + d_ab, d_be, gamma)
    return secret_bit_prob(COLLISION_PROB, pg_closed_form(delta, sigma))


def privacy_radius(
    req: KeyRequest,
    n: int,
    sigma: float,
    gamma: float = 3.5,
    d_ab: float = 2 * NODE_HALF_SPACING,
    d_min: float = 1.0,
    tol: float = 1e-6,
) -> PrivacyRegion:
    """Smallest radius R such that every adversary distance above R meets
    the key target with n transmissions.

    Bisection on the adversary distance, exploiting that the secret-bit
    probability (and hence the key probability) is increasing in distance.
    Raises InfeasibleError when the target is unmet even for an arbitrarily
    remote adversary.
    """
    center = Position(d_ab / 2.0, 0.0)  # the node the adversary approaches
    if n < req.k:
        raise InfeasibleError(f"n = {n} transmissions cannot yield a {req.k}-bit key")

    def met(d_be: float) -> bool:
        return key_prob(req.k, n, fading_pb(d_be, sigma, gamma, d_ab)) >= req.target

    far = 1e12  # proxy for the d_be -> infinity limit
    if not met(far):
        raise InfeasibleError(
            f"target {req.target} unreachable for k={req.k}, n={n}, sigma={sigma}"
        )
    if met(d_min):
        return PrivacyRegion(center=center, radius=d_min)
    lo = d_min
    hi = 2.0 * d_min
    while not met(hi):
        lo = hi
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if met(mid):
            hi = mid
        else:
            lo = mid
    return PrivacyRegion(center=center, radius=hi)
