import csv
import hashlib
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fhkex.experiments
from fhkex.adversary import RULE_ML, RULE_RANDOM, rss_samples, score_session, simulate_eavesdropper
from fhkex.analysis import fading_pb, key_prob
from fhkex.channel import delta_mean_pathloss
from fhkex.experiments import (
    BLOCK_SLOTS,
    GEOMETRY_CANONICAL,
    GEOMETRY_EQUIDISTANT,
    METRIC_PER_BIT,
    METRIC_WHOLE_KEY,
    RESULT_COLUMNS,
    BudgetError,
    FrontierRow,
    ResultRow,
    SweepSpec,
    _classify,
    analytic_prob,
    frontier,
    read_result_csv,
    run_grid_point,
    simulate_session_block,
    simulate_session_counts,
    slice_successes,
    sweep,
    wilson_interval,
    write_frontier_csv,
    write_result_csv,
)
from fhkex.protocol import draw_coins, run_session
from fhkex.scenario import ScenarioConfig, build_deployment
from oracle import estimate_rule_correctness, trace_columns


def test_wilson_interval_contains_estimate():
    for successes, trials in [(0, 100), (1, 100), (50, 100), (99, 100), (100, 100), (3, 7)]:
        lo, hi = wilson_interval(successes, trials)
        p = successes / trials
        assert 0.0 <= lo <= p <= hi <= 1.0


def test_wilson_interval_shrinks_with_trials():
    _, hi_small = wilson_interval(50, 100)
    _, hi_large = wilson_interval(5000, 10000)
    assert hi_large - 0.5 < hi_small - 0.5


def test_bulk_rng_draws_match_single_draws():
    # the vectorized engine relies on bulk draws replaying the single-draw stream
    a = np.random.default_rng(321)
    b = np.random.default_rng(321)
    assert np.array_equal(a.integers(0, 2, size=64), [b.integers(0, 2) for _ in range(64)])
    a = np.random.default_rng(654)
    b = np.random.default_rng(654)
    assert np.array_equal(
        a.standard_normal((8, 2)).ravel(), [b.standard_normal() for _ in range(16)]
    )


# ML cases keep their earlier ids ("seed-sigma"); random-rule ids add the rule
@pytest.mark.parametrize("seed, sigma, rule", [
    pytest.param(seed, sigma, rule, id=f"{seed}-{sigma}" + ("" if rule == RULE_ML else f"-{rule}"))
    for rule in (RULE_ML, RULE_RANDOM) for sigma in (0.0, 8.0) for seed in (1, 99, 12345)
])
def test_vectorized_engine_matches_per_round_engine(seed, sigma, rule):
    cfg = ScenarioConfig(sigma=sigma, n_rounds=400)
    dep = build_deployment(20.0)
    rng_obj = np.random.default_rng(seed)
    transcript = run_session(cfg, rng_obj)
    observations, guesses = simulate_eavesdropper(transcript, *dep, cfg, rng_obj, rule=rule)
    report = score_session(transcript, guesses)

    rng_vec = np.random.default_rng(seed)
    session = simulate_session_counts(rng_vec, cfg.n_rounds, *dep, cfg, rule=rule)
    assert session.correct.size == report.generated
    assert int(session.correct.sum()) == report.guessed_correct
    # draw for draw: the same bits, samples and calls, and both streams end
    # together once the session's generator skips the trace-only draws,
    # which the session takes from a copy of it
    alice, bob, samples, correct, abstain = trace_columns(transcript, observations, guesses)
    assert (session.alice.tolist(), session.bob.tolist()) == (alice, bob)
    assert session.samples.tolist() == [list(pair) for pair in samples]
    assert (session.correct.tolist(), session.abstain.tolist()) == (correct, abstain)
    m = session.correct.size
    rng_vec.standard_normal((m, 2) if rule == RULE_RANDOM else m)
    assert rng_vec.integers(0, 2**62) == rng_obj.integers(0, 2**62)


@pytest.mark.parametrize("rule", [RULE_ML, RULE_RANDOM])
@pytest.mark.parametrize("sigma", [0.0, 8.0])
@pytest.mark.parametrize("seed", [1, 99, 12345])
def test_batched_engine_single_trial_matches_vectorized_session(rule, sigma, seed):
    cfg = ScenarioConfig(sigma=sigma)
    dep = build_deployment(20.0)
    rng_session, rng_block = np.random.default_rng(seed), np.random.default_rng(seed)
    session = simulate_session_counts(rng_session, 400, *dep, cfg, rule=rule)
    generated, correct = session.correct.size, session.correct
    delta = delta_mean_pathloss(*dep, cfg.gamma)
    gen_mask, secret = simulate_session_block(rng_block, 1, 400, delta, cfg.sigma, rule=rule)
    wrong = np.flatnonzero(~correct)
    missed = np.flatnonzero(secret)  # the compressed stream: one flag per generated bit
    assert int(gen_mask.sum()) == generated == secret.size
    assert int(secret.sum()) == generated - int(correct.sum())
    assert (missed[0] if missed.size else 400) == (wrong[0] if wrong.size else 400)
    # the same bits and verdicts, and both streams end after the decision draws
    assert np.array_equal(gen_mask[0], session.alice != session.bob)
    assert np.array_equal(secret, ~correct)
    assert rng_block.integers(0, 2**62) == rng_session.integers(0, 2**62)


@pytest.mark.parametrize("metric", [METRIC_PER_BIT, METRIC_WHOLE_KEY])
@pytest.mark.parametrize("rule", [RULE_ML, RULE_RANDOM])
@pytest.mark.parametrize("seed", [3, 41])
def test_rows_read_session_prefixes(metric, rule, seed):
    # one trial: row (k, n) must judge the first n slots of the single
    # session by the per-trial success rule
    cfg = ScenarioConfig(sigma=8.0)
    dep = build_deployment(20.0)
    ks, ns = (0, 1, 2, 5, 10, 30), (1, 2, 5, 17, 40, 80, 120)
    bits = _coins(np.random.default_rng(seed), 2 * ns[-1])  # the session's first draw
    bit_slots = np.flatnonzero(bits[0::2] != bits[1::2])
    correct = simulate_session_counts(
        np.random.default_rng(seed), ns[-1], *dep, cfg, rule=rule
    ).correct
    expected = []
    for k in ks:
        for n in ns:
            generated = int((bit_slots < n).sum())
            if metric == METRIC_WHOLE_KEY:
                expected.append(generated >= k and not correct[:k].all())
            else:
                expected.append(generated - int(correct[:generated].sum()) >= k)
    counts = slice_successes(
        np.random.default_rng(seed), 1, ks, ns, delta_mean_pathloss(*dep, cfg.gamma), cfg.sigma,
        rule, metric,
    )
    assert counts.ravel().tolist() == [int(e) for e in expected]


def _coins(rng, count):
    """count coins, by hand: the bits of rng.bytes, most significant first."""
    return np.unpackbits(np.frombuffer(rng.bytes((count + 7) // 8), dtype=np.uint8))[:count]


def _replay_trials(seed, trials, n_max, d_ae, d_be, cfg, rule):
    """Per trial, the slots of its generated bits and whether the adversary
    missed each, with every draw replayed by hand in the engine's documented
    order: per block, all coins, then one decision draw per generated bit
    (ML: v, whose score (A - B) * delta has A - B = -delta - sigma * sqrt(2) * v;
    random rule: the guess). Also returns the generator, to compare the next draw."""
    rng = np.random.default_rng(seed)
    block = max(1, BLOCK_SLOTS // n_max)
    delta = 0.0 if d_ae == d_be else delta_mean_pathloss(d_ae, d_be, cfg.gamma)
    replay = []
    for start in range(0, trials, block):
        size = min(block, trials - start)
        bits = _coins(rng, size * 2 * n_max).reshape(size, 2 * n_max)
        alice, bob = bits[:, 0::2], bits[:, 1::2]
        slots = [np.flatnonzero(a != b) for a, b in zip(alice, bob)]
        values = [a[s] for a, s in zip(alice, slots)]
        m = sum(v.size for v in values)
        if rule == RULE_RANDOM:
            guesses = rng.integers(0, 2, size=m)
        else:
            v = rng.standard_normal(m)
        first = 0
        for trial_slots, trial_values in zip(slots, values):
            last = first + trial_values.size
            if rule == RULE_RANDOM:
                missed = guesses[first:last] != trial_values
            else:
                missed = np.array([
                    not (-delta - cfg.sigma * math.sqrt(2.0) * v_i) * delta < 0.0
                    for v_i in v[first:last].tolist()
                ], dtype=bool)
            first = last
            replay.append((trial_slots, missed))
    return replay, rng


def _judge_sessions(seed, trials, ks, ns, d_ae, d_be, cfg, rule, metric):
    """Successes per (k, n), judged trial by trial on each trial's own session
    as _replay_trials replays it by hand. Also returns the generator."""
    replay, rng = _replay_trials(seed, trials, max(ns), d_ae, d_be, cfg, rule)
    counts = np.zeros((len(ks), len(ns)), dtype=int)
    for trial_slots, missed in replay:
        for j, n in enumerate(ns):
            generated = int((trial_slots < n).sum())
            for i, k in enumerate(ks):
                if metric == METRIC_WHOLE_KEY:
                    counts[i, j] += generated >= k and bool(missed[:k].any())
                else:
                    counts[i, j] += int(missed[:generated].sum()) >= k
    return counts, rng


@settings(max_examples=60, deadline=None)
@given(
    ks=st.lists(st.integers(0, 40), max_size=4).map(lambda ks: [*ks, 0]),
    ns=st.lists(st.integers(1, 2500), min_size=1, max_size=5).map(lambda ns: [*ns, ns[0]]),
    distances=st.sampled_from([(52.0, 2.0), (70.0, 20.0), (30.0, 30.0)]),
    sigma=st.sampled_from([0.0, 8.0]),
    rule=st.sampled_from([RULE_ML, RULE_RANDOM]),
    metric=st.sampled_from([METRIC_PER_BIT, METRIC_WHOLE_KEY]),
    trials=st.integers(1, 40),
    seed=st.integers(0, 2**32),
)
def test_slice_successes_judges_each_trial_session(
    ks, ns, distances, sigma, rule, metric, trials, seed
):
    # ns arrive unsorted and repeated; above 2,048 slots a block holds at most
    # 7 trials, so 40 trials span several blocks
    d_ae, d_be = distances
    cfg = ScenarioConfig(sigma=sigma)
    rng = np.random.default_rng(seed)
    delta = delta_mean_pathloss(d_ae, d_be, cfg.gamma)
    counts = slice_successes(rng, trials, ks, ns, delta, sigma, rule, metric)
    expected, replay = _judge_sessions(seed, trials, ks, ns, d_ae, d_be, cfg, rule, metric)
    assert counts.tolist() == expected.tolist()
    assert rng.integers(0, 2**62) == replay.integers(0, 2**62)


def _reference_classify_bit_rounds(values, sample_alice, sample_bob, delta):
    """The engine's earlier ML rule, kept verbatim as the reference: which
    sample sits on f0 follows the bit value; score 0 abstains."""
    on_f0_is_alice = values == 0
    rss_f0 = np.where(on_f0_is_alice, sample_alice, sample_bob)
    rss_f1 = np.where(on_f0_is_alice, sample_bob, sample_alice)
    score = (rss_f0 - rss_f1) * delta
    return np.where(score > 0.0, values == 1, np.where(score < 0.0, values == 0, False))


# (u, v) shadowing draws of one bit round; v None puts v at the tie point
# -delta / (sigma sqrt 2), where A - B rounds to 0 or to a tiny gap of either sign
_NOISE_ROW = st.one_of(
    st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
    st.tuples(st.floats(-6.0, 6.0), st.none()),
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 1), _NOISE_ROW), min_size=1, max_size=40),
    distances=st.sampled_from([(70.0, 20.0), (20.0, 70.0), (30.0, 30.0), (2.0, 1.0), (1.0, 2.0)]),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
)
def test_ml_mask_matches_reference_rule(rows, distances, sigma):
    d_ae, d_be = distances
    cfg = ScenarioConfig(sigma=sigma)
    delta = 0.0 if d_ae == d_be else delta_mean_pathloss(d_ae, d_be, cfg.gamma)
    tie_v = -delta / (sigma * math.sqrt(2.0)) if sigma > 0.0 else 0.0
    values = np.array([value for value, _ in rows])
    u = np.array([u for _, (u, _) in rows])
    v = np.array([tie_v if v is None else v for _, (_, v) in rows])
    mask, abstain = _classify(v, values, delta, sigma, RULE_ML)

    # v decides: the reference rule on the sample gap A - B = -delta - sigma sqrt(2) v
    alice_minus_bob = np.array([-delta - sigma * math.sqrt(2.0) * v_i for v_i in v.tolist()])
    expected = _reference_classify_bit_rounds(values, alice_minus_bob, np.zeros(values.size), delta)
    assert mask.dtype == bool
    assert np.array_equal(mask, expected)
    ties = alice_minus_bob == 0.0
    assert not mask[ties].any()  # an exact tie abstains whatever the bit
    assert np.array_equal(abstain, ties | (delta == 0.0))
    if delta == 0.0:
        assert not mask.any()
    # the written samples, built from (u, v), agree with v's call off near-ties
    samples = rss_samples(u, v, d_ae, d_be, cfg)
    written = samples[:, 0] - samples[:, 1]
    clear = np.abs(written) > 1e-9
    assert np.array_equal(mask[clear], (written * delta < 0.0)[clear])


def test_coin_pair_reads_one_or_256_iff_coins_differ():
    pairs = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    for byte_order in "<>":
        values = pairs.view(byte_order + "u2").ravel()
        assert np.isin(values, (1, 256)).tolist() == [False, True, True, False]


@pytest.mark.parametrize("rule", [RULE_ML, RULE_RANDOM])
@pytest.mark.parametrize("trials", [1, 3, 27])
@pytest.mark.parametrize("n", [1, 7, 600, 16_385])
def test_block_slot_mask_matches_strided_reference(monkeypatch, rule, trials, n):
    seen = []
    classify = fhkex.experiments._classify
    monkeypatch.setattr(
        fhkex.experiments, "_classify",
        lambda draws, values, *rest: seen.append(values) or classify(draws, values, *rest),
    )
    seed = 1000 * trials + n
    generated, secret = simulate_session_block(
        np.random.default_rng(seed), trials, n, delta_mean_pathloss(70.0, 20.0, 3.5), 8.0, rule
    )
    bits = draw_coins(np.random.default_rng(seed), 2 * trials * n).reshape(trials, 2 * n)
    a, b = bits[:, 0::2], bits[:, 1::2]
    assert generated.dtype == bool
    assert np.array_equal(generated, a != b)
    assert secret.size == np.count_nonzero(a != b)
    if rule == RULE_RANDOM:
        assert np.array_equal(seen[0], a[a != b])
    else:
        assert seen[0] is None


def test_engine_counts_every_trial_across_blocks():
    n = 500
    trials = 3 * (BLOCK_SLOTS // n) + 4  # three full blocks and a partial one
    rng = np.random.default_rng(5)
    delta, sigma = delta_mean_pathloss(70.0, 20.0, 3.5), ScenarioConfig().sigma
    counts = slice_successes(rng, trials, (0,), (1, n), delta, sigma)
    assert counts.tolist() == [[trials, trials]]  # k = 0 succeeds on every trial
    spec = SweepSpec(k=(0, 4), n_rounds=(40, n), d_be=(20.0,), sigma=(8.0,), trials=trials)
    rows = sweep(spec)
    assert all(r.trials == trials for r in rows)
    assert [r.p_hat for r in rows if r.k == 0] == [1.0, 1.0]
    # k > 0, judged trial by trial: the ks straddle the trials' own counts of
    # secret bits (ML about 12, random rule about 125) and of generated bits
    # (about 250), and n + 1 exceeds every count, as do the ks past an int64's
    # range that a trial's stream index plus k would overflow
    huge = (n + 1, 2**62 + 1, 2**63 - 1, 2**63 + 1, 10**20)
    ks, ns = (0, 1, 4, 8, 11, 12, 13, 16, 40, 120, 125, 130, 245, 250, 255, *huge), (n, 1, 40, 250)
    cfg = ScenarioConfig(sigma=sigma)
    for rule, metric in itertools.product((RULE_ML, RULE_RANDOM), (METRIC_PER_BIT, METRIC_WHOLE_KEY)):
        rng = np.random.default_rng(6)
        counts = slice_successes(rng, trials, ks, ns, delta, sigma, rule, metric)
        expected, replay = _judge_sessions(6, trials, ks, ns, 70.0, 20.0, cfg, rule, metric)
        assert counts.tolist() == expected.tolist(), (rule, metric)
        assert rng.integers(0, 2**62) == replay.integers(0, 2**62)
        # k = 0: every trial per bit, none for the whole key; k > n: none
        assert counts[0].tolist() == [trials if metric == METRIC_PER_BIT else 0] * len(ns)
        assert counts[-len(huge):].tolist() == [[0] * len(ns)] * len(huge)


@pytest.mark.parametrize("metric", [METRIC_PER_BIT, METRIC_WHOLE_KEY])
@pytest.mark.parametrize("rule", [RULE_ML, RULE_RANDOM])
def test_count_steps_at_the_slot_that_completes_the_key(rule, metric):
    # one trial, whose key completes at slot s (read off the hand replay): it
    # fails at n = s and succeeds from n = s + 1
    seed, n_max = 8, 400
    cfg = ScenarioConfig(sigma=8.0)
    d_ae, d_be = build_deployment(20.0)
    delta = delta_mean_pathloss(d_ae, d_be, cfg.gamma)
    ((slots, missed),), _ = _replay_trials(seed, 1, n_max, d_ae, d_be, cfg, rule)
    if metric == METRIC_WHOLE_KEY:
        # the k-th generated bit completes the key if a missed bit is among the first k
        rank = int(np.argmax(missed))  # the first missed bit, by rank among the trial's bits
        assert missed[rank] and rank >= 1
        completing = {k: slots[k - 1] for k in (rank + 1, rank + 5, slots.size)}
        never = (rank, slots.size + 1)  # no missed bit among the first k; too few bits
    else:
        secret_slots = slots[missed]  # the k-th secret bit completes the key
        completing = {k: secret_slots[k - 1] for k in (1, 2, secret_slots.size)}
        never = (secret_slots.size + 1,)
    for k, s in completing.items():
        assert 1 <= s < n_max
        counts = slice_successes(
            np.random.default_rng(seed), 1, (k,), (s, s + 1, n_max), delta, cfg.sigma, rule, metric
        )
        assert counts.tolist() == [[0, 1, 1]], k
    counts = slice_successes(
        np.random.default_rng(seed), 1, never, (1, n_max), delta, cfg.sigma, rule, metric
    )
    assert counts.tolist() == [[0, 0]] * len(never)


@settings(max_examples=40, deadline=None)
@given(
    ks=st.lists(st.integers(0, 40), min_size=1, max_size=5, unique=True),
    ns=st.lists(st.integers(1, 120), min_size=1, max_size=6, unique=True),
    d_be=st.sampled_from([2.0, 20.0, 60.0]),
    sigma=st.sampled_from([0.0, 8.0]),
    rule=st.sampled_from([RULE_ML, RULE_RANDOM]),
    metric=st.sampled_from([METRIC_PER_BIT, METRIC_WHOLE_KEY]),
    trials=st.integers(1, 60),
    seed=st.integers(0, 2**32),
)
def test_slice_rows_share_sessions(ks, ns, d_be, sigma, rule, metric, trials, seed):
    spec = SweepSpec(
        k=sorted(ks), n_rounds=sorted(ns), d_be=(d_be,), sigma=(sigma,),
        trials=trials, base_seed=seed, rule=rule, metric=metric,
    )
    p_hat = {(r.k, r.n): r.p_hat for r in sweep(spec)}
    for k in spec.k:
        along_n = [p_hat[(k, n)] for n in spec.n_rounds]
        assert along_n == sorted(along_n)
    if metric == METRIC_PER_BIT:
        # more secret bits needed never helps; the whole-key metric has no
        # such order, since a larger k also gives the adversary more bits to miss
        for n in spec.n_rounds:
            along_k = [p_hat[(k, n)] for k in spec.k]
            assert along_k == sorted(along_k, reverse=True)


def test_sweep_spec_validation():
    good = dict(k=(8,), n_rounds=(30,), d_be=(20.0,), sigma=(8.0,))
    SweepSpec(**good)
    with pytest.raises(ValueError):
        SweepSpec(**good, trials=0)
    with pytest.raises(ValueError):
        SweepSpec(**good, rule="psychic")
    with pytest.raises(ValueError):
        SweepSpec(**good, metric="vibes")
    with pytest.raises(ValueError):
        SweepSpec(**good, geometry="moebius")
    with pytest.raises(BudgetError):
        SweepSpec(**good, trials=100, budget=99)
    with pytest.raises(ValueError):
        SweepSpec(**{**good, "n_rounds": (30, 0)})
    with pytest.raises(ValueError):
        SweepSpec(**{**good, "k": (8, -1)})


def test_budget_counts_simulated_slots_before_allocating():
    # one billion slots would need gigabytes; the spec refuses before any draw
    with pytest.raises(BudgetError):
        SweepSpec(k=(8,), n_rounds=(10**9,), d_be=(20.0,), sigma=(8.0,), trials=1)
    # every (d_be, sigma) slice runs all trials at the longest n; k and the
    # shorter n values ride on the same sessions for free
    spec = SweepSpec(
        k=(1, 2, 3), n_rounds=(10, 50), d_be=(20.0, 60.0), sigma=(8.0,), trials=7, budget=700
    )
    assert spec.slots == 2 * 7 * 50
    with pytest.raises(BudgetError):
        SweepSpec(k=(1,), n_rounds=(10, 50), d_be=(20.0, 60.0), sigma=(8.0,), trials=7, budget=699)


def test_grid_point_order_is_deterministic():
    spec = SweepSpec(k=(8, 16), n_rounds=(30, 60), d_be=(5.0, 20.0), sigma=(2.0,), trials=1)
    points = list(itertools.product(spec.k, spec.n_rounds, spec.d_be, spec.sigma))
    assert len(points) == 8
    assert points[0] == (8, 30, 5.0, 2.0)
    assert points[-1] == (16, 60, 20.0, 2.0)
    rows = sweep(spec)
    assert [(r.k, r.n, r.d_be, r.sigma) for r in rows] == points


def test_empty_axis_gives_empty_table():
    spec = SweepSpec(k=(), n_rounds=(30,), d_be=(20.0,), sigma=(8.0,))
    assert sweep(spec) == ()


def test_run_grid_point_equidistant_matches_closed_form():
    p_hat, (lo, hi) = run_grid_point(
        128, 300, 60.0, 0.0, trials=2000, base_seed=42, cfg=ScenarioConfig(),
        geometry=GEOMETRY_EQUIDISTANT,
    )
    expected = float(key_prob(128, 300, 0.5))
    half = (hi - lo) / 2
    assert abs(p_hat - expected) <= 3 * half


def test_run_grid_point_no_fading_unequal_distances_never_succeeds():
    p_hat, _ = run_grid_point(1, 200, 20.0, 0.0, trials=500, base_seed=1, cfg=ScenarioConfig())
    assert p_hat == 0.0


def test_run_grid_point_trivial_key_always_succeeds():
    p_hat, _ = run_grid_point(0, 10, 20.0, 8.0, trials=1, base_seed=0, cfg=ScenarioConfig())
    assert p_hat == 1.0


def test_run_grid_point_rejects_distances_below_reference():
    with pytest.raises(ValueError):
        run_grid_point(1, 10, 0.5, 8.0, trials=1, base_seed=0, cfg=ScenarioConfig())


def test_analytic_prob_composition():
    point = (64, 300, 20.0, 8.0)
    value = analytic_prob(*point, RULE_ML, METRIC_PER_BIT, "canonical", gamma=3.5)
    assert value == pytest.approx(float(key_prob(64, 300, fading_pb(20.0, 8.0))), abs=1e-12)

    # random rule: secret rate one quarter regardless of geometry
    value = analytic_prob(*point, RULE_RANDOM, METRIC_PER_BIT, "canonical", gamma=3.5)
    assert value == pytest.approx(float(key_prob(64, 300, 0.25)), abs=1e-12)


@pytest.mark.parametrize("d_be", [0.7, 12.3, 0.1 + 0.2])
def test_sweep_analytic_column_reads_the_typed_distance(d_be):
    # the sweep and the closed form place the adversary from the same typed distance,
    # including ones that do not survive a round trip through x = 25 + d_be
    spec = SweepSpec(
        k=(1, 4, 16), n_rounds=(40, 200, 600), d_be=(d_be,), sigma=(8.0, 20.0), trials=1,
        scenario=ScenarioConfig(d0=0.1),
    )
    for row in sweep(spec):
        assert row.d_be == d_be
        assert row.p_analytic == float(key_prob(row.k, row.n, fading_pb(d_be, row.sigma)))


@pytest.mark.parametrize("metric", [METRIC_PER_BIT, METRIC_WHOLE_KEY])
@pytest.mark.parametrize("rule", [RULE_ML, RULE_RANDOM])
@pytest.mark.parametrize("geometry, d_be", [
    (GEOMETRY_CANONICAL, (2.0, 20.0, 60.0)),
    (GEOMETRY_EQUIDISTANT, (25.0, 60.0)),
])
def test_sweep_analytic_column_is_analytic_prob(metric, rule, geometry, d_be):
    spec = SweepSpec(
        k=(0, 1, 16, 64, 700), n_rounds=(1, 40, 200, 600), d_be=d_be, sigma=(0.0, 8.0),
        trials=1, rule=rule, metric=metric, geometry=geometry,
    )
    for row in sweep(spec):
        point = (row.k, row.n, row.d_be, row.sigma)
        assert row.p_analytic == analytic_prob(*point, rule, metric, geometry, gamma=3.5)


def test_run_grid_point_fading_agrees_with_closed_form():
    point = (4, 150, 60.0, 8.0)
    p_hat, (lo, hi) = run_grid_point(*point, trials=800, base_seed=23, cfg=ScenarioConfig())
    expected = analytic_prob(*point, RULE_ML, METRIC_PER_BIT, "canonical", gamma=3.5)
    half = (hi - lo) / 2
    assert abs(p_hat - expected) <= 3 * half


def test_whole_key_metric_agrees_with_its_closed_form():
    point = (2, 16, 20.0, 8.0)
    p_hat, (lo, hi) = run_grid_point(
        *point, trials=4000, base_seed=7, cfg=ScenarioConfig(), metric=METRIC_WHOLE_KEY
    )
    expected = analytic_prob(*point, RULE_ML, METRIC_WHOLE_KEY, "canonical", gamma=3.5)
    half = (hi - lo) / 2
    assert abs(p_hat - expected) <= 3 * half


def test_analytic_column_trends():
    spec = SweepSpec(
        k=(32, 64), n_rounds=(200, 400, 800), d_be=(20.0, 60.0, 200.0), sigma=(8.0, 14.0),
        trials=1, base_seed=0,
    )
    rows = {(r.k, r.n, r.d_be, r.sigma): r.p_analytic for r in sweep(spec)}

    def series(fixed, axis, values):
        return [rows[fixed(v)] for v in values]

    for k in spec.k:
        for d in spec.d_be:
            for s in spec.sigma:
                along_n = series(lambda n: (k, n, d, s), "n", spec.n_rounds)
                assert all(b >= a for a, b in zip(along_n, along_n[1:]))
    for k in spec.k:
        for n in spec.n_rounds:
            for s in spec.sigma:
                along_d = series(lambda d: (k, n, d, s), "d", spec.d_be)
                assert all(b >= a for a, b in zip(along_d, along_d[1:]))
            for d in spec.d_be:
                along_s = series(lambda s: (k, n, d, s), "s", spec.sigma)
                assert all(b >= a for a, b in zip(along_s, along_s[1:]))
    for n in spec.n_rounds:
        for d in spec.d_be:
            for s in spec.sigma:
                along_k = series(lambda k: (k, n, d, s), "k", spec.k)
                assert all(b <= a for a, b in zip(along_k, along_k[1:]))


def test_estimate_rule_correctness_random_is_half():
    rng = np.random.default_rng(17)
    rate = estimate_rule_correctness(
        rng, 10**5, 70.0, 20.0, ScenarioConfig(sigma=8.0), rule=RULE_RANDOM
    )
    assert rate == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("rule, sigma, rate, next_draw", [
    (RULE_ML, 0.0, 1.0, 3457870722),
    (RULE_ML, 8.0, 0.9582, 3457870722),
    (RULE_RANDOM, 0.0, 0.5012, 2854317815),
    (RULE_RANDOM, 8.0, 0.5012, 2854317815),
])
def test_estimate_rule_correctness_pinned_draws(rule, sigma, rate, next_draw):
    # frozen from a stand-alone per-bit loop over the same draws, chunk edges
    # included: per chunk, coins read bit by bit from rng.bytes, then one v
    # (scored as (-delta - sigma sqrt(2) v) * delta < 0) or one guess per bit
    rng = np.random.default_rng(20261018)
    cfg = ScenarioConfig(sigma=sigma)
    got = estimate_rule_correctness(rng, 5000, 70.0, 20.0, cfg, rule, chunk=1500)
    assert got == rate
    assert rng.integers(0, 2**32) == next_draw


def _csv_text(rows):
    """sweep.csv as write_result_csv writes it."""
    buf = io.StringIO()
    write_result_csv(rows, buf)
    return buf.getvalue()


def _small_spec(**overrides):
    base = dict(
        k=(4,), n_rounds=(20, 40), d_be=(20.0, 60.0), sigma=(8.0,),
        trials=100, base_seed=11,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_sweep_reproducible_and_worker_independent():
    spec = _small_spec()
    text_1 = _csv_text(sweep(spec))
    text_2 = _csv_text(sweep(spec))
    assert text_1 == text_2
    assert text_1 != _csv_text(sweep(_small_spec(base_seed=12)))


# Every column but p_analytic, whose closed form may move in its last bits;
# the Monte Carlo columns are a frozen function of the spec. Both orders of
# sigma, unsorted and repeated n, and trial counts spanning several blocks.
# Re-pinned when the draws last changed (coins from rng.bytes, one normal per
# ML decision), after the hand replay of test_slice_successes_judges_each_trial_session
# and the engine-against-oracle tests passed on the new draws.
_FROZEN_SWEEPS = [
    (dict(k=(0, 3, 16), n_rounds=(40, 10, 120, 40), d_be=(25.0, 60.0), sigma=(0.0, 8.0),
          trials=70, rule=RULE_ML, metric=METRIC_PER_BIT, geometry=GEOMETRY_EQUIDISTANT,
          base_seed=1),
     "ab4c986feebabe722480c599e394e2a6af7fafe4f63b8b45cb37871dd15d3d53"),
    (dict(k=(0, 1, 4, 12), n_rounds=(8, 30, 600), d_be=(2.0, 20.0), sigma=(0.0, 8.0),
          trials=60, rule=RULE_ML, metric=METRIC_WHOLE_KEY, geometry=GEOMETRY_CANONICAL,
          base_seed=2),
     "b6105eef4c58c26025fc737cdf169885761f633301d9a358842550cf7a97f71f"),
    (dict(k=(2, 0, 9), n_rounds=(50, 5, 200), d_be=(20.0, 35.0), sigma=(8.0, 0.0),
          trials=90, rule=RULE_RANDOM, metric=METRIC_PER_BIT, geometry=GEOMETRY_CANONICAL,
          base_seed=3),
     "da261e002170b6500de0eba9742d8bf0b2e880f500aeaf02c59060a96672ca49"),
    (dict(k=(0, 2, 5), n_rounds=(300, 12, 12, 90), d_be=(30.0,), sigma=(0.0, 8.0),
          trials=80, rule=RULE_RANDOM, metric=METRIC_WHOLE_KEY, geometry=GEOMETRY_EQUIDISTANT,
          base_seed=4),
     "b6aa58f1864ecf20b7f33b8da221689db8985c1c3aa1aab0d887436286322d3e"),
]


@pytest.mark.parametrize("spec, digest", _FROZEN_SWEEPS, ids=["ml-bit", "ml-key", "rand-bit", "rand-key"])
def test_sweep_monte_carlo_bytes_are_frozen(spec, digest):
    text = _csv_text(sweep(SweepSpec(**spec)))
    assert text.splitlines()[0].endswith(",p_analytic")
    body = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
    assert hashlib.sha256(body.encode()).hexdigest() == digest


# The whole sweep.csv text, p_analytic included: a canonical ML sweep under
# sigma 8 (three slices, 57 trials over three blocks at n = 600) and an
# equidistant sigma 0 sweep, where every ML call is an abstaining tie.
_FROZEN_SWEEP_FILES = [
    (dict(k=(0, 16, 64), n_rounds=(100, 20, 600, 100), d_be=(2.0, 20.0, 35.0), sigma=(8.0,),
          trials=57, rule=RULE_ML, metric=METRIC_PER_BIT, geometry=GEOMETRY_CANONICAL,
          base_seed=5),
     "aea4616eaa52600dd542cbcd128e6fd615551f63977dd45c17a7abf14d6ff802"),
    (dict(k=(0, 8, 64), n_rounds=tuple(range(60, 301, 40)), d_be=(60.0,), sigma=(0.0,),
          trials=101, rule=RULE_ML, metric=METRIC_PER_BIT, geometry=GEOMETRY_EQUIDISTANT,
          base_seed=6),
     "a39b440942a658bd5424d11e8435ad89e7b84c2edb40e6d5c6e39d560676bc34"),
]


@pytest.mark.parametrize("spec, digest", _FROZEN_SWEEP_FILES, ids=["ml-sigma8", "equidistant-tie"])
def test_sweep_csv_bytes_are_frozen(spec, digest):
    text = _csv_text(sweep(SweepSpec(**spec)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_result_csv_roundtrip():
    rows = sweep(_small_spec())
    text = _csv_text(rows)
    parsed = read_result_csv(io.StringIO(text))
    assert parsed == rows
    # None in the analytic column survives the roundtrip
    row = ResultRow(
        k=1, n=2, d_be=3.0, sigma=4.0, rule=RULE_ML, metric=METRIC_PER_BIT,
        trials=5, p_hat=0.5, ci_lo=0.2, ci_hi=0.8, p_analytic=None,
    )
    assert row == (1, 2, 3.0, 4.0, RULE_ML, METRIC_PER_BIT, 5, 0.5, 0.2, 0.8, None)
    assert read_result_csv(io.StringIO(_csv_text((row,)))) == (row,)


def _csv_writer_reference(rows):
    """The result CSV as csv.writer writes it, each float as its repr and None as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for r in rows:
        writer.writerow([
            "" if v is None else repr(v) if isinstance(v, float) else str(v)
            for v in (getattr(r, col) for col in RESULT_COLUMNS)
        ])
    return buf.getvalue()


def test_result_csv_matches_csv_writer():
    swept = sweep(_small_spec())
    rows = swept + (
        ResultRow(
            k=1, n=2, d_be=3.0, sigma=0.0, rule=RULE_RANDOM, metric=METRIC_WHOLE_KEY,
            trials=5, p_hat=0.0, ci_lo=0.0, ci_hi=1e-300, p_analytic=None,
        ),
        ResultRow(
            k=0, n=10**6, d_be=1e15, sigma=1 / 3, rule=RULE_ML, metric=METRIC_PER_BIT,
            trials=1, p_hat=1.0, ci_lo=0.1 + 0.2, ci_hi=1.0, p_analytic=5e-324,
        ),
    )
    assert any(r.p_analytic is not None for r in swept)
    assert _csv_text(rows) == _csv_writer_reference(rows)


def test_result_csv_writes_repeated_estimates_as_csv_writer_does():
    # (p_hat, ci_lo, ci_hi) text is made once per distinct triple; the signs of zeros still count
    triples = [
        (0.5, 0.2, 0.8), (0.0, 0.0, 0.3), (-0.0, 0.0, 0.3), (0.0, -0.0, 0.3),
        (1.0, 0.9, 1.0), (0.1 + 0.2, 1 / 3, 0.7), (0.0, 0.0, -0.0),
    ]
    rows = tuple(
        ResultRow(
            k=i % 3, n=10 + i, d_be=(20.0, -0.0)[i % 2], sigma=8.0, rule=RULE_ML,
            metric=METRIC_PER_BIT, trials=(5, 100, 7)[i % 3], p_hat=p_hat, ci_lo=lo, ci_hi=hi,
            p_analytic=None if i % 4 == 0 else i / 7,
        )
        for i, (p_hat, lo, hi) in enumerate(triples * 5)
    )
    text = _csv_text(rows)
    assert text == _csv_writer_reference(rows)
    assert "-0.0,0.0,0.3" in text and "0.0,-0.0,0.3" in text
    parsed = read_result_csv(io.StringIO(text))
    assert parsed == rows
    assert _csv_text(parsed) == text


def test_sweep_computes_each_estimate_once_per_success_count(monkeypatch):
    calls = []
    exact = fhkex.experiments.wilson_interval
    monkeypatch.setattr(
        fhkex.experiments, "wilson_interval", lambda *args: calls.append(args) or exact(*args)
    )
    spec = _small_spec(k=(1, 4, 8), n_rounds=(10, 20, 30, 40), trials=20)
    rows = sweep(spec)
    counts = {round(row.p_hat * spec.trials) for row in rows}
    assert len(counts) < len(rows)  # counts repeat, so the rows share intervals
    assert sorted(calls) == sorted((c, spec.trials) for c in counts)
    for row in rows:
        assert (row.ci_lo, row.ci_hi) == exact(round(row.p_hat * spec.trials), spec.trials)


@pytest.mark.parametrize("metric, per_slice", [(METRIC_PER_BIT, 1), (METRIC_WHOLE_KEY, 0)])
def test_sweep_computes_secret_bit_prob_once_per_slice(monkeypatch, metric, per_slice):
    calls = []
    exact = fhkex.experiments.secret_bit_prob
    monkeypatch.setattr(
        fhkex.experiments, "secret_bit_prob", lambda *args: calls.append(args) or exact(*args)
    )
    spec = _small_spec(n_rounds=(10, 20, 30, 40), sigma=(0.0, 8.0), trials=5, metric=metric)
    sweep(spec)
    assert len(calls) == per_slice * len(spec.d_be) * len(spec.sigma)


def test_frontier_csv_matches_csv_writer():
    rows = [
        FrontierRow(d_be=1e15, min_n=None),
        FrontierRow(d_be=0.1 + 0.2, min_n=563),
        FrontierRow(d_be=1 / 3, min_n=None),
        FrontierRow(d_be=20.0, min_n=10**6),
    ]
    buf = io.StringIO()
    write_frontier_csv(rows, buf)
    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(["d_be", "min_n", "status"])
    for r in rows:
        if r.min_n is None:
            writer.writerow([repr(r.d_be), "", "infeasible"])
        else:
            writer.writerow([repr(r.d_be), r.min_n, "ok"])
    assert buf.getvalue() == reference.getvalue()


def test_result_csv_header():
    text = _csv_text(sweep(_small_spec()))
    assert text.splitlines()[0] == "k,n,d_be,sigma,rule,metric,trials,p_hat,ci_lo,ci_hi,p_analytic"


def _rows(rows_spec):
    return tuple(
        ResultRow(
            k=8, n=n, d_be=d, sigma=8.0, rule=RULE_ML, metric=METRIC_PER_BIT,
            trials=100, p_hat=p, ci_lo=max(0.0, p - 0.05), ci_hi=min(1.0, p + 0.05),
            p_analytic=None,
        )
        for (n, d, p) in rows_spec
    )


def test_frontier_saturated_table():
    rows = _rows([(n, d, 1.0) for n in (30, 60, 90) for d in (5.0, 10.0)])
    front = frontier(rows, target=0.9)
    assert front == [FrontierRow(d_be=5.0, min_n=30), FrontierRow(d_be=10.0, min_n=30)]


def test_frontier_single_n_grid():
    rows = _rows([(50, 5.0, 0.95), (50, 10.0, 0.2)])
    front = frontier(rows, target=0.9)
    assert front[0] == FrontierRow(d_be=5.0, min_n=50)
    assert front[1] == FrontierRow(d_be=10.0, min_n=50)  # carried by isotonic cleanup


def test_frontier_infeasible_rows_marked():
    rows = _rows([(50, 5.0, 0.2), (50, 10.0, 0.2)])
    front = frontier(rows, target=0.9)
    assert front == [FrontierRow(d_be=5.0, min_n=None), FrontierRow(d_be=10.0, min_n=None)]


def test_frontier_isotonic_cleanup():
    # Monte Carlo noise put a later (easier) distance above the earlier one
    rows = _rows(
        [(30, 5.0, 0.1), (60, 5.0, 0.95), (30, 10.0, 0.1), (60, 10.0, 0.1), (90, 10.0, 0.95)]
    )
    front = frontier(rows, target=0.9)
    assert front == [FrontierRow(d_be=5.0, min_n=60), FrontierRow(d_be=10.0, min_n=60)]
    mins = [r.min_n for r in front]
    assert mins == sorted(mins, reverse=True) or len(set(mins)) == 1


def test_frontier_requires_single_slice():
    rows = (
        ResultRow(k=8, n=10, d_be=5.0, sigma=8.0, rule=RULE_ML, metric=METRIC_PER_BIT,
                  trials=10, p_hat=1.0, ci_lo=0.9, ci_hi=1.0, p_analytic=None),
        ResultRow(k=16, n=10, d_be=5.0, sigma=8.0, rule=RULE_ML, metric=METRIC_PER_BIT,
                  trials=10, p_hat=1.0, ci_lo=0.9, ci_hi=1.0, p_analytic=None),
    )
    with pytest.raises(ValueError):
        frontier(rows, target=0.9)


def test_frontier_empty_table():
    assert frontier((), target=0.9) == []


def test_frontier_analytic_column():
    rows = (
        ResultRow(k=8, n=10, d_be=5.0, sigma=8.0, rule=RULE_ML, metric=METRIC_PER_BIT,
                  trials=10, p_hat=0.0, ci_lo=0.0, ci_hi=0.1, p_analytic=0.95),
        ResultRow(k=8, n=20, d_be=5.0, sigma=8.0, rule=RULE_ML, metric=METRIC_PER_BIT,
                  trials=10, p_hat=0.0, ci_lo=0.0, ci_hi=0.1, p_analytic=0.99),
    )
    got = frontier(rows, target=0.9, column="p_analytic")
    assert got == [FrontierRow(d_be=5.0, min_n=10)]
    with pytest.raises(ValueError):
        frontier(rows, target=0.9, column="p_magic")
