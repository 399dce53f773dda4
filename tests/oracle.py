"""Test-side references: the per-round engine's session in the columns the CSV
writers take, and the estimators that only the tests use."""

import math

import numpy as np

from fhkex.adversary import _AS241_CENTRAL, _AS241_FAR_TAIL, _AS241_NEAR_TAIL, RULE_ML, U_FLOOR, Verdict
from fhkex.analysis import Probability
from fhkex.channel import delta_mean_pathloss
from fhkex.protocol import draw_coins
from fhkex.scenario import ScenarioConfig

#: Distance tolerance (meters) below which the no-fading adversary is
#: treated as exactly equidistant.
DISTANCE_TOL = 1e-3


def bit_columns(alice, bob):
    """Alice's and Bob's bit per slot as one write_transcript_csv block, shape (n, 2)."""
    return np.array([alice, bob], dtype=np.uint8).T


def trace_columns(alice, bob, samples, calls):
    """(alice bits, bob bits, Alice/Bob samples, correct, abstain): one block of write_adversary_trace_csv."""
    values = [a for a, b in zip(alice, bob) if a != b]
    correct = [call == value for call, value in zip(calls, values)]
    return alice, bob, samples, correct, [call is None for call in calls]


def transcript_text(alice, bob, seed):
    """transcript.csv straight from the per-round engine's bits, with no writer in between."""
    key = "".join(str(a) for a, b in zip(alice, bob) if a != b)
    lines = [f"# seed={seed}", f"# key={key}", "round,a_bit,b_bit,outcome,bit_value"]
    for slot, (a, b) in enumerate(zip(alice, bob), start=1):
        lines.append(f"{slot},{a},{b},bit,{a}" if a != b else f"{slot},{a},{b},collision,")
    return "\n".join(lines) + "\n"


def trace_csv_text(alice, bob, samples, calls):
    """eve_trace.csv straight from the per-round engine: per bit slot, Alice's sample on
    f_a and Bob's on the other frequency, and the call, with no writer in between."""
    lines = ["round,rss_f0,rss_f1,decision,correct"]
    bit_slots = iter(zip(samples, calls))
    for slot, (a, b) in enumerate(zip(alice, bob), start=1):
        if a == b:
            lines.append(f"{slot},,,,")
            continue
        (rss_alice, rss_bob), call = next(bit_slots)
        rss_f0, rss_f1 = (rss_alice, rss_bob) if a == 0 else (rss_bob, rss_alice)
        decision = "abstain" if call is None else call
        lines.append(f"{slot},{rss_f0!r},{rss_f1!r},{decision},{int(call == a)}")
    return "\n".join(lines) + "\n"


def _as241_ratio(coeffs, r):
    num = den = 0.0
    for a, b in zip(coeffs[:8], coeffs[8:]):
        num, den = num * r + a, den * r + b
    return num, den


def as241(p: float) -> float:
    """Phi^-1(p), one p at a time in Python floats and libm's log: Wichura's AS241
    as statistics' pure-Python fallback evaluates it, on adversary's coefficient
    tables; a p of 0 is read as U_FLOOR."""
    q = p - 0.5
    if abs(q) <= 0.425:
        num, den = _as241_ratio(_AS241_CENTRAL, 0.180625 - q * q)
        return q * num / den
    r = math.sqrt(-math.log(max(p if q < 0.0 else 1.0 - p, U_FLOOR)))
    num, den = _as241_ratio(_AS241_NEAR_TAIL, r - 1.6) if r <= 5.0 else _as241_ratio(_AS241_FAR_TAIL, r - 5.0)
    return -(num / den) if q < 0.0 else num / den


def baseline_pg(d_ae: float, d_be: float, tol: float = DISTANCE_TOL) -> Probability:
    """No-fading guessing probability: 0 iff the adversary is equidistant."""
    if not (d_ae > 0.0 and d_be > 0.0):
        raise ValueError(f"distances must be positive, got {d_ae}, {d_be}")
    return Probability(0.0 if abs(d_ae - d_be) <= tol else 1.0)


def estimate_rule_correctness(
    coins: np.random.PCG64,
    decisions: np.random.PCG64,
    n_bit_rounds: int,
    d_ae: float,
    d_be: float,
    cfg: ScenarioConfig,
    rule: str = RULE_ML,
    chunk: int = 1_000_000,
) -> float:
    """Empirical per-bit-round correct-guess frequency over synthetic bit rounds.

    Per chunk: the bit values from draw_coins on the coin stream, and one
    decision word per bit from the decision stream.
    """
    correct = 0
    remaining = n_bit_rounds
    verdict = Verdict(delta_mean_pathloss(d_ae, d_be, cfg.gamma), cfg.sigma, rule)
    while remaining > 0:
        m = min(chunk, remaining)
        values = draw_coins(coins, m)
        correct += m - int(verdict.missed(decisions.random_raw(m), values).sum())
        remaining -= m
    return correct / n_bit_rounds
