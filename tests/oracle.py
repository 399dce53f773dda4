"""Test-side references: the per-round engine's session in the columns the CSV
writers take, and the estimators that only the tests use."""

import math

import numpy as np

from fhkex.adversary import _AS241_CENTRAL, _AS241_FAR_TAIL, _AS241_NEAR_TAIL, KIND_BIT, RULE_ML, U_FLOOR
from fhkex.analysis import Probability
from fhkex.channel import delta_mean_pathloss
from fhkex.experiments import _classify, _decision_draws
from fhkex.protocol import SharedBit, draw_coins
from fhkex.scenario import ScenarioConfig

#: Distance tolerance (meters) below which the no-fading adversary is
#: treated as exactly equidistant.
DISTANCE_TOL = 1e-3


def bit_columns(transcript):
    """Alice's and Bob's bit per slot: the columns of one write_transcript_csv block."""
    return [r.alice.bit for r in transcript.rounds], [r.bob.bit for r in transcript.rounds]


def trace_columns(transcript, observations, guesses):
    """(alice bits, bob bits, Alice/Bob samples, correct, abstain): one block of write_adversary_trace_csv."""
    values = transcript.key_bits
    bit_obs = [obs for obs in observations if obs.kind == KIND_BIT]
    samples = [
        (obs.rss_f0, obs.rss_f1) if value == 0 else (obs.rss_f1, obs.rss_f0)
        for obs, value in zip(bit_obs, values)
    ]
    correct = [g.decision == value for g, value in zip(guesses, values)]
    abstain = [g.decision is None for g in guesses]
    return (*bit_columns(transcript), samples, correct, abstain)


def transcript_text(transcript, seed):
    """transcript.csv straight from the per-round engine's records, with no writer in between."""
    lines = [f"# seed={seed}", f"# key={transcript.key_string}", "round,a_bit,b_bit,outcome,bit_value"]
    for r in transcript.rounds:
        if isinstance(r.outcome, SharedBit):
            lines.append(f"{r.slot},{r.alice.bit},{r.bob.bit},bit,{r.outcome.value}")
        else:
            lines.append(f"{r.slot},{r.alice.bit},{r.bob.bit},collision,")
    return "\n".join(lines) + "\n"


def trace_csv_text(transcript, observations, guesses):
    """eve_trace.csv straight from the per-round engine: each observation's own f0/f1
    samples and each guess's own decision, with no column mapping in between."""
    by_slot = {g.slot: g for g in guesses}
    lines = ["round,rss_f0,rss_f1,decision,correct"]
    for record, obs in zip(transcript.rounds, observations):
        if obs.kind != KIND_BIT:
            lines.append(f"{record.slot},,,,")
            continue
        guess = by_slot[record.slot]
        decision = "abstain" if guess.decision is None else guess.decision
        correct = int(guess.decision == record.outcome.value)
        lines.append(f"{record.slot},{obs.rss_f0!r},{obs.rss_f1!r},{decision},{correct}")
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
    rng: np.random.Generator,
    n_bit_rounds: int,
    d_ae: float,
    d_be: float,
    cfg: ScenarioConfig,
    rule: str = RULE_ML,
    chunk: int = 1_000_000,
) -> float:
    """Empirical per-bit-round correct-guess frequency over synthetic bit rounds.

    Per chunk: the bit values from draw_coins, then one decision draw per bit.
    """
    correct = 0
    remaining = n_bit_rounds
    delta = delta_mean_pathloss(d_ae, d_be, cfg.gamma)
    while remaining > 0:
        m = min(chunk, remaining)
        values = draw_coins(rng, m)
        draws = _decision_draws(rng, m, rule)
        correct += int(_classify(draws, values, delta, cfg.sigma, rule)[0].sum())
        remaining -= m
    return correct / n_bit_rounds
