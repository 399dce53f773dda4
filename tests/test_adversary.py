import io
import math
import sys
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr

from fhkex.adversary import (
    RULE_ML,
    RULE_RANDOM,
    U_FLOOR,
    normal_quantile,
    pg_closed_form,
    simulate_eavesdropper,
    write_adversary_trace_csv,
)
from fhkex.channel import delta_mean_pathloss
from fhkex.experiments import session_streams
from oracle import as241, trace_columns, trace_csv_text
from fhkex.protocol import run_session
from fhkex.scenario import GEOMETRY_EQUIDISTANT, ScenarioConfig, build_deployment

NO_FADING = ScenarioConfig(sigma=0.0)
CANONICAL_20 = build_deployment(20.0)  # d_ae = 70, d_be = 20
EQUIDISTANT_60 = build_deployment(60.0, GEOMETRY_EQUIDISTANT)


def _session_with_calls(cfg, dep, rule, seed):
    """Alice's and Bob's bits, the key, and Eve's samples and calls, from the streams of seed."""
    coins, decisions, trace = session_streams(seed)
    alice, bob, key = run_session(cfg, coins)
    samples, calls = simulate_eavesdropper(alice, bob, *dep, cfg, decisions, trace, rule=rule)
    return alice, bob, key, samples, calls


def _f0_f1(key, samples):
    """(value, rss_f0, rss_f1) per bit-generating slot: Alice transmits on f_value."""
    return [(value, *(pair if value == 0 else pair[::-1])) for value, pair in zip(key, samples)]


def _call(gap, delta):
    """The pairwise ML call on an f0 - f1 gap: the sign of gap * delta, None on a tie."""
    score = gap * delta
    return 1 if score > 0.0 else 0 if score < 0.0 else None


def _secret(key, calls):
    """Generated bits that Eve did not call correctly; an abstention is never correct."""
    return sum(call != value for call, value in zip(calls, key))


def test_observe_bit_round_without_fading():
    cfg = NO_FADING.replace(n_rounds=50)
    _, _, key, samples, _ = _session_with_calls(cfg, CANONICAL_20, RULE_ML, seed=3)
    bits = _f0_f1(key, samples)
    assert {value for value, *_ in bits} == {0, 1}
    alice, bob = -84.578431400499, -65.53604984823934  # at 70 m and 20 m
    for value, rss_f0, rss_f1 in bits:
        # Alice transmits on f_value, Bob on the other frequency
        expected = (alice, bob) if value == 0 else (bob, alice)
        assert (rss_f0, rss_f1) == pytest.approx(expected, abs=1e-9)


def test_observe_equidistant_samples_equal():
    cfg = NO_FADING.replace(n_rounds=50)
    _, _, key, samples, _ = _session_with_calls(cfg, EQUIDISTANT_60, RULE_ML, seed=3)
    bits = _f0_f1(key, samples)
    assert bits
    for _, rss_f0, rss_f1 in bits:
        assert rss_f0 == rss_f1


def test_observe_collision_round_is_flagged_only():
    cfg = NO_FADING.replace(n_rounds=50)
    alice, bob, key, samples, calls = _session_with_calls(cfg, CANONICAL_20, RULE_ML, seed=9)
    collisions = sum(a == b for a, b in zip(alice, bob))
    assert collisions
    # one sample pair and one call per bit-generating slot, none for a collision
    assert len(samples) == len(calls) == len(key) == len(alice) - collisions


def test_ml_always_correct_without_fading():
    cfg = NO_FADING.replace(n_rounds=100)
    for d_be in (2.0, 20.0, 300.0):
        _, _, key, _, calls = _session_with_calls(cfg, build_deployment(d_be), RULE_ML, seed=0)
        assert set(calls) == {0, 1}
        assert calls == key


def test_ml_abstains_when_equidistant():
    for sigma in (0.0, 8.0):
        cfg = ScenarioConfig(sigma=sigma, n_rounds=100)
        *_, calls = _session_with_calls(cfg, EQUIDISTANT_60, RULE_ML, seed=1)
        assert calls
        assert all(call is None for call in calls)


def test_ml_matches_closed_form_at_sigma8():
    cfg = ScenarioConfig(sigma=8.0)
    d_ae, d_be = CANONICAL_20
    delta = delta_mean_pathloss(d_ae, d_be, cfg.gamma)
    rng = np.random.default_rng(1000)
    n = 10**6
    # vectorized mirror of the pairwise ML call on one fresh sample per node
    values = rng.integers(0, 2, size=n)
    noise = rng.standard_normal((n, 2))
    pl_ae = 40.0 + 35.0 * math.log10(d_ae)
    pl_be = 40.0 + 35.0 * math.log10(d_be)
    s_alice = 20.0 - (pl_ae + 8.0 * noise[:, 0])
    s_bob = 20.0 - (pl_be + 8.0 * noise[:, 1])
    rss_f0 = np.where(values == 0, s_alice, s_bob)
    rss_f1 = np.where(values == 0, s_bob, s_alice)
    score = (rss_f0 - rss_f1) * delta
    correct = np.where(score > 0, values == 1, np.where(score < 0, values == 0, False))
    expected = pg_closed_form(delta, 8.0)
    assert expected == pytest.approx(0.95382451734016105, abs=1e-12)
    assert correct.mean() == pytest.approx(expected, abs=0.002)


def test_random_rule_behaviour():
    # every slot generates a bit, so the session makes n guesses
    n = 10**5
    alice = np.arange(n) % 2
    alice, bob, _ = run_session(ScenarioConfig(), alice_bits=alice.tolist(), bob_bits=(1 - alice).tolist())
    cfg = ScenarioConfig(sigma=8.0)

    def decisions(dep, seed):
        _, decisions, trace = session_streams(seed)
        _, calls = simulate_eavesdropper(alice, bob, *dep, cfg, decisions, trace, rule=RULE_RANDOM)
        return np.array(calls)

    first = decisions(CANONICAL_20, 4)
    assert first.size == n
    assert set(np.unique(first)) == {0, 1}  # never abstains
    assert first.mean() == pytest.approx(0.5, abs=0.01)
    # ignores the observation values entirely
    assert np.array_equal(decisions(build_deployment(300.0), 4), first)


def test_pg_closed_form_values():
    assert pg_closed_form(0.0, 8.0) == 0.0  # every call ties, and ties abstain
    assert pg_closed_form(19.04238155225965, 8.0) == pytest.approx(0.95382451734016105, abs=1e-12)
    assert pg_closed_form(19.04238155225965, 2.0) >= 0.999999
    assert pg_closed_form(5.0, 0.0) == 1.0
    assert pg_closed_form(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        pg_closed_form(1.0, -1.0)


def test_pg_closed_form_monotonicity():
    deltas = np.linspace(0.0, 60.0, 40)
    values = [pg_closed_form(d, 8.0) for d in deltas]
    assert all(b >= a for a, b in zip(values, values[1:]))
    sigmas = np.linspace(0.5, 20.0, 40)
    values = [pg_closed_form(19.0, s) for s in sigmas]
    assert all(b <= a for a, b in zip(values, values[1:]))


def _ulps_apart(a: float, b: float) -> int:
    """Distance in units in the last place between two non-negative doubles."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


# Subnormal sigmas are left out: there sigma * sqrt(2) itself loses bits, so
# the reference is the inexact side (at delta = sigma = 5e-324 it reads
# Phi(1), while the exact Phi(1/sqrt(2)) is what pg_closed_form returns).
@given(
    delta=st.floats(min_value=-60.0, max_value=60.0),
    sigma=st.floats(min_value=sys.float_info.min, max_value=20.0),
)
def test_pg_closed_form_matches_scipy_ndtr(delta, sigma):
    expected = 0.0 if delta == 0.0 else float(ndtr(abs(delta) / (sigma * math.sqrt(2.0))))
    assert _ulps_apart(pg_closed_form(delta, sigma), expected) <= 2


def test_normal_quantile_matches_statistics_inv_cdf():
    # element by element within 8 ulp of statistics.NormalDist().inv_cdf, C or
    # pure Python: uniform draws, both tails out to 2**-53 and 1 - 2**-53, and
    # each side of both branch edges, |p - 1/2| = 0.425 and
    # r = sqrt(-log(min(p, 1 - p))) = 5
    rng = np.random.default_rng(20261020)
    tails = 10.0 ** -rng.uniform(1.0, 15.9, 2000)
    r5 = math.exp(-25.0)
    edges = np.array([0.075, 0.925, r5, 1.0 - r5, 0.5])
    p = np.concatenate([
        rng.random(20_000), tails, 1.0 - tails, edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        [r5 * (1.0 - 1e-9), r5 * (1.0 + 1e-9), 2.0**-53, 1.0 - 2.0**-53],
    ])
    got = normal_quantile(p).tolist()
    for p_i, got_i in zip(p.tolist(), got):
        want = NormalDist().inv_cdf(p_i)
        assert math.copysign(1.0, got_i) == math.copysign(1.0, want), p_i
        assert _ulps_apart(abs(got_i), abs(want)) <= 8, p_i
    # bit for bit the scalar AS241 in Python floats on libm's log, so no CPU's
    # vectorised log moves a written sample: the points include the lower-tail
    # ones where numpy's log differs from libm's on this CPU (none on many);
    # a draw of 0 is read as U_FLOOR
    wide = 10.0 ** -rng.uniform(1.13, 15.9, 200_000)
    p = np.concatenate([p, wide[np.log(wide) != [math.log(x) for x in wide.tolist()]], [0.0]])
    assert normal_quantile(p).tolist() == [as241(p_i) for p_i in p.tolist()]
    assert normal_quantile(np.zeros(1)).tolist() == normal_quantile(np.array([U_FLOOR])).tolist()
    assert _ulps_apart(-normal_quantile(np.zeros(1))[0], -NormalDist().inv_cdf(U_FLOOR)) <= 8


def test_score_session_extremes():
    cfg = NO_FADING.replace(n_rounds=300)
    _, _, key, _, calls = _session_with_calls(cfg, CANONICAL_20, RULE_ML, seed=1)
    # without fading every unequal-distance guess is right
    assert calls == key
    assert _secret(key, calls) == 0

    flipped = [None if call is None else call ^ 1 for call in calls]
    assert _secret(key, flipped) == len(key)


def test_score_session_random_rule_quarter():
    cfg = ScenarioConfig(sigma=8.0, n_rounds=10**5)
    _, _, key, _, calls = _session_with_calls(cfg, CANONICAL_20, RULE_RANDOM, seed=12)
    assert _secret(key, calls) / cfg.n_rounds == pytest.approx(0.25, abs=0.007)


def test_decisions_invariant_under_power_and_reference_shift():
    base = ScenarioConfig(sigma=8.0, n_rounds=2000)
    shifted = base.replace(pt=base.pt + 17.25, pl0=base.pl0 + 6.5)
    *bits_1, _, calls_1 = _session_with_calls(base, CANONICAL_20, RULE_ML, seed=55)
    *bits_2, _, calls_2 = _session_with_calls(shifted, CANONICAL_20, RULE_ML, seed=55)
    assert bits_1 == bits_2
    assert calls_1 == calls_2
    assert _secret(bits_1[2], calls_1) == _secret(bits_2[2], calls_2)


def test_swapped_positions_flip_decisions():
    cfg = ScenarioConfig(sigma=8.0, n_rounds=500)
    delta = delta_mean_pathloss(*CANONICAL_20, cfg.gamma)
    swapped = delta_mean_pathloss(*CANONICAL_20[::-1], cfg.gamma)
    _, _, key, samples, _ = _session_with_calls(cfg, CANONICAL_20, RULE_ML, seed=77)
    bits = _f0_f1(key, samples)
    assert len(bits) >= 200
    for _, rss_f0, rss_f1 in bits:
        original = _call(rss_f0 - rss_f1, delta)
        mirrored = _call(rss_f0 - rss_f1, swapped)
        if original is None:
            assert mirrored is None
        else:
            assert mirrored == original ^ 1


def test_swapped_positions_preserve_correctness_rate():
    cfg = ScenarioConfig(sigma=8.0, n_rounds=4 * 10**4)
    dep = CANONICAL_20
    mirrored = dep[::-1]
    _, _, key_1, _, calls_1 = _session_with_calls(cfg, dep, RULE_ML, seed=5)
    _, _, key_2, _, calls_2 = _session_with_calls(cfg, mirrored, RULE_ML, seed=5)
    rate1 = 1.0 - _secret(key_1, calls_1) / len(key_1)
    rate2 = 1.0 - _secret(key_2, calls_2) / len(key_2)
    assert rate1 == pytest.approx(rate2, abs=0.01)


def test_adversary_trace_csv():
    # the writer's output must equal the trace formatted straight from the
    # per-round engine's samples and calls, not merely undo its input mapping
    cases = [
        (ScenarioConfig(sigma=8.0, n_rounds=20), CANONICAL_20, RULE_ML, 3),
        # far off, Eve calls little better than a coin: wrong calls of both values
        (ScenarioConfig(sigma=8.0, n_rounds=40), build_deployment(300.0), RULE_ML, 3),
        (ScenarioConfig(sigma=8.0, n_rounds=20), EQUIDISTANT_60, RULE_ML, 3),
        (ScenarioConfig(sigma=8.0, n_rounds=20), CANONICAL_20, RULE_RANDOM, 3),
    ]
    # by hand: Alice transmits on f_value, so value 1 puts Bob's sample on f0
    buf = io.StringIO()
    write_adversary_trace_csv([(
        [0, 1, 1, 0], [1, 0, 1, 1], [(-50.0, -60.0), (-51.0, -61.0), (-52.0, -52.0)],
        [True, False, False], [False, False, True],
    )], buf)
    assert buf.getvalue().splitlines()[1:] == [
        "1,-50.0,-60.0,0,1", "2,-61.0,-51.0,0,0", "3,,,,", "4,-52.0,-52.0,abstain,0",
    ]
    calls = set()
    for cfg, dep, rule, seed in cases:
        alice, bob, key, samples, eve_calls = _session_with_calls(cfg, dep, rule, seed=seed)
        buf = io.StringIO()
        write_adversary_trace_csv([trace_columns(alice, bob, samples, eve_calls)], buf)
        assert buf.getvalue() == trace_csv_text(alice, bob, samples, eve_calls)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "round,rss_f0,rss_f1,decision,correct"
        assert len(lines) == 1 + cfg.n_rounds
        collision_rows = [l for l in lines[1:] if l.endswith(",,,")]
        assert len(collision_rows) == cfg.n_rounds - len(key)
        calls |= {(rule, *line.split(",")[3:]) for line in lines[1:]}
    # the cases cover a right and a wrong call of each value, and an ML tie
    for d in ("0", "1"):
        assert {(RULE_ML, d, "1"), (RULE_ML, d, "0")} <= calls
    assert (RULE_ML, "abstain", "0") in calls


@pytest.mark.parametrize("block, message", [
    (([0, 1], [1], [], [], []), "bit columns of equal length"),
    (([0, 1], [1, 0], [(-50.0, -60.0)], [True], [False]), "one entry per bit slot"),
    (([0, 1], [1, 0], [(-50.0, -60.0)] * 2, [True], [False, False]), "one entry per bit slot"),
])
def test_adversary_trace_csv_refuses_misshapen_blocks(block, message):
    with pytest.raises(ValueError, match=message):
        write_adversary_trace_csv([block], io.StringIO())
