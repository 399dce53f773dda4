"""Eavesdropper model: RSS samples and source classification.

Eve monitors both frequencies. On a collision-free slot she records one RSS
sample per frequency (fresh independent shadowing per sample) and tries to
decide which node transmitted where; mapping the inferred assignment through
the public protocol rule yields her guess of the key bit. Collision slots are
detectable (a single occupied frequency) and carry no key material.

The two shadowing draws of a slot are built from two standard normals u and
v as (u + v)/sqrt(2) for Alice and (u - v)/sqrt(2) for Bob: independent,
with unit variance. Their difference, sqrt(2) * v, is all the ML rule reads,
so v, drawn as one uniform U with v = normal_quantile(U), decides the bit
and u only places the written samples.

Verdict holds each rule's one decision for the batched engine; the per-round
oracle, simulate_eavesdropper, keeps its own score rule as the reference.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, TextIO, Union

import numpy as np

from .channel import delta_mean_pathloss, path_loss_deterministic
from .scenario import ScenarioConfig, text_stream

RULE_ML = "ml-pairwise"
RULE_RANDOM = "random-guess"
RULES = (RULE_ML, RULE_RANDOM)


def rss_samples(
    u: np.ndarray, v: np.ndarray, d_ae: float, d_be: float, cfg: ScenarioConfig
) -> np.ndarray:
    """Alice's and Bob's RSS at Eve for m bit rounds, shape (m, 2), dBm.

    From the m shadowing draws u and v: pt - (pl + sigma * (u + v) / sqrt(2))
    for Alice and pt - (pl + sigma * (u - v) / sqrt(2)) for Bob, built in place.
    """
    samples = np.empty((np.size(u), 2))
    np.add(u, v, out=samples[:, 0])
    np.subtract(u, v, out=samples[:, 1])
    samples *= cfg.sigma
    samples /= math.sqrt(2.0)
    samples += (path_loss_deterministic(d_ae, cfg), path_loss_deterministic(d_be, cfg))
    np.subtract(cfg.pt, samples, out=samples)
    return samples


U_FLOOR = 2.0**-54  #: a draw of 0 as normal_quantile reads it: half Generator.random's least positive one

# Wichura's AS241 (1988) as CPython's statistics holds it: numerator, then denominator, highest power first
_AS241_CENTRAL, _AS241_NEAR_TAIL, _AS241_FAR_TAIL = (
    (2509.0809287301227, 33430.57558358813, 67265.7709270087, 45921.95393154987, 13731.69376550946,
     1971.5909503065513, 133.14166789178438, 3.3871328727963665, 5226.495278852854, 28729.085735721943,
     39307.89580009271, 21213.794301586597, 5394.196021424751, 687.1870074920579, 42.31333070160091, 1.0),
    (0.0007745450142783414, 0.022723844989269184, 0.2417807251774506, 1.2704582524523684,
     3.6478483247632045, 5.769497221460691, 4.630337846156546, 1.4234371107496835, 1.0507500716444169e-09,
     0.0005475938084995345, 0.015198666563616457, 0.14810397642748008, 0.6897673349851, 1.6763848301838038,
     2.053191626637759, 1.0),
    (2.0103343992922881e-07, 2.7115555687434876e-05, 0.0012426609473880784, 0.026532189526576124,
     0.29656057182850487, 1.7848265399172913, 5.463784911164114, 6.657904643501103, 2.0442631033899397e-15,
     1.421511758316446e-07, 1.8463183175100548e-05, 0.0007868691311456133, 0.014875361290850615,
     0.1369298809227358, 0.599832206555888, 1.0),
)


def _rational(coeffs: Sequence[float], r: np.ndarray, scale: float | np.ndarray = 1.0) -> np.ndarray:
    """scale * num(r) / den(r) at every r by Horner's rule, as statistics rounds it; coeffs as _AS241_*."""
    num = den = 0.0
    for a, b in zip(coeffs[:8], coeffs[8:]):
        num, den = num * r + a, den * r + b
    return scale * num / den


def normal_quantile(p: np.ndarray) -> np.ndarray:
    """Phi^-1(p) for every p in [0, 1), as statistics.NormalDist().inv_cdf computes it; 0 as U_FLOOR."""
    q = p - 0.5
    x = _rational(_AS241_CENTRAL, 0.180625 - q * q, q)  # on every value, the tails' only where they apply
    tail = np.flatnonzero(np.abs(q) > 0.425)
    low = q[tail] < 0.0
    # libm's log, as statistics takes it: numpy's own log differs from it in last bits on AVX-512 CPUs
    tail_p = np.maximum(np.where(low, p[tail], 1.0 - p[tail]), U_FLOOR)
    r = np.sqrt(-np.fromiter(map(math.log, tail_p.tolist()), float))
    x_tail = _rational(_AS241_NEAR_TAIL, r - 1.6)
    far = r > 5.0
    if far.any():
        x_tail[far] = _rational(_AS241_FAR_TAIL, r[far] - 5.0)
    x[tail] = np.where(low, -x_tail, x_tail)
    return x


def pg_closed_form(delta: float, sigma: float) -> float:
    """Probability that the pairwise ML rule names the transmitter correctly.

    Phi(|delta| / (sigma*sqrt(2))) = erfc(-|delta| / (2 sigma)) / 2 for
    sigma > 0 (within 2 ulp of scipy's ndtr), and 1 at sigma = 0. Where the
    hypotheses coincide (delta = 0) every call is an exact tie, which the
    rule abstains on, so it scores 0 at any sigma.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if delta == 0.0:
        return 0.0
    if sigma == 0.0:
        return 1.0
    return 0.5 * math.erfc(-abs(delta) / (2.0 * sigma))


class Verdict:
    """A rule's calls on key bits at mean path-loss gap delta
    (channel.delta_mean_pathloss) and shadowing sigma, from one raw 64-bit
    decision word w per bit; built per sweep slice or session, not per block.

    The random rule guesses w's top bit. The ML call names the value iff
    (A - B) * delta < 0 for Alice's and Bob's samples A, B, whatever the
    value (0 puts A on f0, 1 puts B there). As A - B = -delta - sigma *
    sqrt(2) * Phi^-1(U) for w's uniform U = (w >> 11) 2^-53, Generator.random's,
    that is so iff U lies strictly on delta's side of the cut
    Phi(-delta / (sigma sqrt 2)); U at the cut ties, and the rule abstains.
    A cut at or below U_FLOOR is moved below it: a U of 0 reads as U_FLOOR,
    as normal_quantile reads it, on delta's side. fixed is every ML call's
    miss where no draw decides, True at delta = 0 (all tie) and False at
    sigma = 0 (all named); else it is None, as is the random rule's cut.
    pg is the rule's per-bit probability of naming the value.
    """

    def __init__(self, delta: float, sigma: float, rule: str = RULE_ML):
        self.rule, self.fixed, self.cut = rule, None, None
        self.pg = 0.5 if rule == RULE_RANDOM else pg_closed_form(delta, sigma)
        if rule == RULE_ML and (delta == 0.0 or sigma == 0.0):
            self.fixed = delta == 0.0
        elif rule == RULE_ML:
            cut = 0.5 * math.erfc(delta / (2.0 * sigma))
            self.cut = cut - U_FLOOR if cut <= U_FLOOR else cut
            # U grows with w and c 2^53 is exact for the cut c, so a miss is one comparison of w, no U made:
            # below the first word whose U exceeds the cut (delta > 0), or above the last one under it
            first, last = (math.floor(self.cut * 2.0**53) + 1) << 11, (math.ceil(self.cut * 2.0**53) << 11) - 1
            self._above, self._word = delta > 0.0, np.uint64(first if delta > 0.0 else last)

    def missed(self, words: np.ndarray, values: np.ndarray | None = None) -> np.ndarray:
        """Per key bit, whether the call misses its value (wrong or a tie), from
        its uint64 decision word; values, the bits' values, only the random rule reads."""
        if self.rule == RULE_RANDOM:
            return words >> 63 != values
        if self.fixed is not None:
            return np.full(words.size, self.fixed)
        return words < self._word if self._above else words > self._word

    def ties(self, uniforms: np.ndarray | None, missed: np.ndarray) -> np.ndarray:
        """Per key bit, whether the call abstains, given its word's U (ML only) and
        its miss: a tie is always a miss, and the random rule never abstains."""
        if self.rule == RULE_RANDOM:
            return np.zeros(missed.size, dtype=bool)
        return missed if self.cut is None else uniforms == self.cut


def simulate_eavesdropper(
    alice: Sequence[int],
    bob: Sequence[int],
    d_ae: float,
    d_be: float,
    cfg: ScenarioConfig,
    decisions: np.random.PCG64,
    trace: np.random.Generator,
    rule: str = RULE_ML,
) -> tuple[list[list[float]], list[int | None]]:
    """Eve's samples and calls on the bit-generating slots of a session's bits.

    Returns, per slot whose bits differ, in slot order: Alice's and Bob's RSS
    [A, B] at Eve (dBm), and the call on the key bit, 0, 1 or None for an
    abstention. Draw order, as in the vectorized engine, per bit slot in slot
    order: one raw 64-bit word w from decisions (random rule: its top bit is
    the guess; ML: U = (w >> 11) 2^-53), and from trace the draws that place
    the samples (ML: u, random rule: u and v).
    The ML call is the sign of gap * delta, delta = PL(d_ae) - PL(d_be), None
    on a tie; the f0 - f1 gap is A - B = -delta - sigma * sqrt(2) * v (Alice
    on f0) for a bit 0 and B - A for a 1, with v = normal_quantile(U), not the
    engine's threshold on U.
    """
    values = [a for a, b in zip(alice, bob) if a != b]
    words = [decisions.random_raw() for _ in values]
    if rule == RULE_RANDOM:
        calls = [w >> 63 for w in words]
        uv = [(trace.standard_normal(), trace.standard_normal()) for _ in values]
    else:
        calls = []  # made in the loop below
        v = normal_quantile(np.array([(w >> 11) * 2.0**-53 for w in words])).tolist()
        uv = [(trace.standard_normal(), vi) for vi in v]
    delta = delta_mean_pathloss(d_ae, d_be, cfg.gamma)
    pl_ae, pl_be = path_loss_deterministic(d_ae, cfg), path_loss_deterministic(d_be, cfg)
    samples = []
    for value, (u, v) in zip(values, uv):
        # rss_samples' operations, in its order
        samples.append([cfg.pt - (cfg.sigma * (u + v) / math.sqrt(2.0) + pl_ae),
                        cfg.pt - (cfg.sigma * (u - v) / math.sqrt(2.0) + pl_be)])
        if rule != RULE_RANDOM:
            score = (1 - 2 * value) * (-delta - cfg.sigma * math.sqrt(2.0) * v) * delta
            calls.append(1 if score > 0.0 else 0 if score < 0.0 else None)
    return samples, calls


#: eve_trace.csv rows as two-stage %-templates: a bit slot's at 3 * value +
#: verdict, the verdict 0 wrong, 1 abstain, 2 correct, and a collision's last.
#: The first % fills every round (%d, an int); it leaves each %%r as %r, which
#: the second fills with a bit slot's rss_f0 and rss_f1 (float.__repr__).
_TRACE_ROWS = (
    "%d,%%r,%%r,1,0\n", "%d,%%r,%%r,abstain,0\n", "%d,%%r,%%r,0,1\n",
    "%d,%%r,%%r,0,0\n", "%d,%%r,%%r,abstain,0\n", "%d,%%r,%%r,1,1\n",
    "%d,,,,\n",
)


def write_adversary_trace_csv(blocks: Iterable[Sequence], dest: Union[str, TextIO]) -> int:
    """Per-slot trace: round, rss_f0, rss_f1, decision, correct; returns the bits Eve named.

    blocks holds the session's slots in order, each block as (alice_bits,
    bob_bits, samples, correct, abstain): alice_bits and bob_bits hold one
    bit per slot; samples (Alice's and Bob's RSS at Eve, dBm), correct and
    abstain hold one entry per bit-generating slot, in slot order. Alice
    transmits on f_value, so the value picks which sample sits on f0; the
    decision is the value if correct, "abstain" on a tie, otherwise the
    other bit. Collision slots leave the sample and decision fields empty.
    """
    guessed = 0
    slot = 1
    with text_stream(dest, "w") as fh:
        fh.write("round,rss_f0,rss_f1,decision,correct\n")
        for alice, bob, samples, correct, abstain in blocks:
            alice, bob = np.asarray(alice), np.asarray(bob)
            samples = np.asarray(samples, dtype=float).reshape(-1, 2)
            correct, abstain = np.asarray(correct, dtype=bool), np.asarray(abstain, dtype=bool)
            if alice.shape != bob.shape:
                raise ValueError("trace needs bit columns of equal length")
            bit = alice != bob
            values = alice[bit]
            if not values.size == len(samples) == correct.size == abstain.size:
                raise ValueError("trace needs one entry per bit slot")
            codes = np.full(alice.size, len(_TRACE_ROWS) - 1)
            codes[bit] = 3 * values + 2 * correct + abstain
            on_f1 = (values == 1)[:, None]  # Alice's sample sits on f1
            rss = np.where(on_f1, samples[:, ::-1], samples)  # rss_f0, rss_f1 per bit slot
            rows = "".join(map(_TRACE_ROWS.__getitem__, codes.tolist()))
            rows %= tuple(range(slot, slot + alice.size))
            fh.write(rows % tuple(rss.ravel().tolist()))
            slot += alice.size
            guessed += int(np.count_nonzero(correct))
    return guessed
