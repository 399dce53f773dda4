import csv
import hashlib
import io
import itertools
import math
import threading
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fhkex.experiments
from fhkex.adversary import (
    RULE_ML,
    RULE_RANDOM,
    U_FLOOR,
    Verdict,
    normal_quantile,
    pg_closed_form,
    rss_samples,
    simulate_eavesdropper,
)
from fhkex.analysis import COLLISION_PROB, _walk, fading_pb, key_prob, key_probs, secret_bit_prob, window_floor
from fhkex.channel import delta_mean_pathloss
from fhkex.experiments import (
    BLOCK_SLOTS,
    METRIC_PER_BIT,
    METRIC_WHOLE_KEY,
    METRICS,
    RESULT_COLUMNS,
    ROW_LIMIT,
    BudgetError,
    FrontierRow,
    ResultRow,
    Session,
    SweepSpec,
    _analytic_columns,
    _generated,
    _key_columns,
    _walks,
    analytic_prob,
    draw_slot_bits,
    frontier,
    read_result_csv,
    run_grid_point,
    session_blocks,
    session_streams,
    simulate_session_counts,
    slice_successes,
    sweep,
    wilson_interval,
    write_frontier_csv,
    write_result_csv,
)
from fhkex.protocol import COINS, DECISIONS, TRACE, draw_coins, run_session, stream
from fhkex.scenario import GEOMETRY_CANONICAL, GEOMETRY_EQUIDISTANT, ScenarioConfig, build_deployment
from oracle import estimate_rule_correctness, trace_columns


def _judge_block(decisions, bits, delta, sigma, rule):
    """(generated, words, missed) for (m, 2) coin pairs as draw_slot_bits gives
    them: the engine's slot mask of generated bits, then per generated bit in
    slot order its decision word and the rule's Verdict on it, a word drawn
    for every bit, as a session draws them (a sweep draws none for a fixed
    verdict). So T trials of n slots judged as one batch draw and decide what
    one session of T n slots does."""
    generated = _generated(bits)
    words = decisions.random_raw(np.count_nonzero(generated))
    values = bits[:, 0][generated] if rule == RULE_RANDOM else None
    return generated, words, Verdict(delta, sigma, rule).missed(words, values)


def _slice_streams(seed):
    """A slice's coin and decision streams, as a session of seed has them."""
    return stream((seed,), COINS), stream((seed,), DECISIONS)


def _next_words(*streams):
    """The next raw word of each stream: equal lists mean the streams end together."""
    return [s.random_raw() for s in streams]


def _engine_session(seed, n, d_ae, d_be, cfg, rule):
    """simulate_session_counts' session, from streams the caller keeps: (session, coins, decisions, trace)."""
    coins, decisions, trace = session_streams(seed)
    blocks = session_blocks(decisions, trace, draw_slot_bits(coins, n), d_ae, d_be, cfg, rule)
    return Session(*map(np.concatenate, zip(*blocks))), coins, decisions, trace


def test_wilson_interval_contains_estimate():
    for successes, trials in [(0, 100), (1, 100), (50, 100), (99, 100), (100, 100), (3, 7)]:
        lo, hi = wilson_interval(successes, trials)
        p = successes / trials
        assert 0.0 <= lo <= p <= hi <= 1.0


def test_wilson_interval_needs_a_trial():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        wilson_interval(0, 0)


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
    a = np.random.default_rng(987)
    b = np.random.default_rng(987)
    assert np.array_equal(a.random(16), [b.random() for _ in range(16)])


# ML cases keep their earlier ids ("seed-sigma"); random-rule ids add the rule
@pytest.mark.parametrize("seed, sigma, rule", [
    pytest.param(seed, sigma, rule, id=f"{seed}-{sigma}" + ("" if rule == RULE_ML else f"-{rule}"))
    for rule in (RULE_ML, RULE_RANDOM) for sigma in (0.0, 8.0) for seed in (1, 99, 12345)
])
def test_vectorized_engine_matches_per_round_engine(seed, sigma, rule):
    cfg = ScenarioConfig(sigma=sigma, n_rounds=400)
    dep = build_deployment(20.0)
    coins_obj, decisions_obj, trace_obj = session_streams(seed)
    alice, bob, key = run_session(cfg, coins_obj)
    samples, calls = simulate_eavesdropper(alice, bob, *dep, cfg, decisions_obj, trace_obj, rule=rule)

    session, *streams_vec = _engine_session(seed, cfg.n_rounds, *dep, cfg, rule)
    assert session.correct.size == len(key)
    assert int(session.correct.sum()) == sum(call == value for call, value in zip(calls, key))
    # draw for draw: the same bits, samples and calls, and the coin, decision
    # and trace streams of both engines end together
    *_, correct, abstain = trace_columns(alice, bob, samples, calls)
    assert (session.alice.tolist(), session.bob.tolist()) == (alice, bob)
    assert session.samples.tolist() == samples
    assert (session.correct.tolist(), session.abstain.tolist()) == (correct, abstain)
    coins_vec, decisions_vec, trace_vec = streams_vec
    assert _next_words(coins_vec, decisions_vec, trace_vec.bit_generator) == _next_words(
        coins_obj, decisions_obj, trace_obj.bit_generator
    )
    assert np.array_equal(simulate_session_counts(seed, cfg.n_rounds, *dep, cfg, rule).samples, session.samples)


@pytest.mark.parametrize("rule", [RULE_ML, RULE_RANDOM])
@pytest.mark.parametrize("sigma", [0.0, 8.0])
@pytest.mark.parametrize("seed", [1, 99, 12345])
def test_batched_engine_single_trial_matches_vectorized_session(rule, sigma, seed):
    cfg = ScenarioConfig(sigma=sigma)
    dep = build_deployment(20.0)
    session, coins_session, decisions_session, _ = _engine_session(seed, 400, *dep, cfg, rule)
    generated, correct = session.correct.size, session.correct
    delta = delta_mean_pathloss(*dep, cfg.gamma)
    coins_block, decisions_block = _slice_streams(seed)
    (block,) = draw_slot_bits(coins_block, 400)
    gen_mask, _, secret = _judge_block(decisions_block, block, delta, cfg.sigma, rule)
    wrong = np.flatnonzero(~correct)
    missed = np.flatnonzero(secret)  # the compressed stream: one flag per generated bit
    assert int(gen_mask.sum()) == generated == secret.size
    assert int(secret.sum()) == generated - int(correct.sum())
    assert (missed[0] if missed.size else 400) == (wrong[0] if wrong.size else 400)
    # the same bits and verdicts, and the coin and decision streams end together
    assert np.array_equal(gen_mask, session.alice != session.bob)
    assert np.array_equal(secret, ~correct)
    assert _next_words(coins_block, decisions_block) == _next_words(coins_session, decisions_session)


@pytest.mark.parametrize("metric", [METRIC_PER_BIT, METRIC_WHOLE_KEY])
@pytest.mark.parametrize("rule", [RULE_ML, RULE_RANDOM])
@pytest.mark.parametrize("seed", [3, 41])
def test_rows_read_session_prefixes(metric, rule, seed):
    # one trial: row (k, n) must judge the first n slots of the single
    # session by the per-trial success rule
    cfg = ScenarioConfig(sigma=8.0)
    dep = build_deployment(20.0)
    ks, ns = (0, 1, 2, 5, 10, 30), (1, 2, 5, 17, 40, 80, 120)
    bits = _coins(np.random.Generator(stream((seed,), COINS)), 2 * ns[-1])  # the session's coins
    bit_slots = np.flatnonzero(bits[0::2] != bits[1::2])
    correct = simulate_session_counts(seed, ns[-1], *dep, cfg, rule=rule).correct
    expected = []
    for k in ks:
        for n in ns:
            generated = int((bit_slots < n).sum())
            if metric == METRIC_WHOLE_KEY:
                expected.append(generated >= k and not correct[:k].all())
            else:
                expected.append(generated - int(correct[:generated].sum()) >= k)
    counts = slice_successes(
        *_slice_streams(seed), 1, ks, ns, Verdict(delta_mean_pathloss(*dep, cfg.gamma), cfg.sigma, rule), metric,
    )
    assert counts.ravel().tolist() == [int(e) for e in expected]


def _coins(rng, count):
    """count coins, by hand: the bits of rng.bytes of whole 64-bit words, each byte least significant first."""
    raw = np.frombuffer(rng.bytes(8 * -(-count // 64)), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:count]


def _replay_trials(seed, trials, n_max, d_ae, d_be, cfg, rule, block_slots=BLOCK_SLOTS, draw_fixed=False):
    """Per trial, the slots of its generated bits and whether the adversary
    missed each, with every draw replayed by hand in the engine's documented
    order: per batch of block_slots // n_max trials (at least one), all its
    coins from the coin stream of seed, then a decision word per generated
    bit from its decision stream (ML: a uniform U, whose score (A - B) *
    delta has A - B = -delta - sigma * sqrt(2) * v for
    v = statistics.NormalDist().inv_cdf(U); random rule: the word's top bit
    is the guess). A fixed ML verdict, at delta = 0 or sigma = 0, reads no
    word, unless draw_fixed. Also returns both streams, to compare their
    next words."""
    coins, decisions = (np.random.Generator(s) for s in _slice_streams(seed))
    block = max(1, block_slots // n_max)
    delta = 0.0 if d_ae == d_be else delta_mean_pathloss(d_ae, d_be, cfg.gamma)
    fixed = rule == RULE_ML and (delta == 0.0 or cfg.sigma == 0.0) and not draw_fixed
    replay = []
    for start in range(0, trials, block):
        size = min(block, trials - start)
        bits = _coins(coins, size * 2 * n_max).reshape(size, 2 * n_max)
        alice, bob = bits[:, 0::2], bits[:, 1::2]
        slots = [np.flatnonzero(a != b) for a, b in zip(alice, bob)]
        values = [a[s] for a, s in zip(alice, slots)]
        m = sum(v.size for v in values)
        if rule == RULE_RANDOM:
            guesses = np.array([w >> 63 for w in decisions.bit_generator.random_raw(m).tolist()], dtype=int)
        elif fixed:
            v = [0.0] * m  # read nowhere: the score's sign does not depend on v
        else:
            v = [NormalDist().inv_cdf(u) for u in decisions.random(m).tolist()]
        first = 0
        for trial_slots, trial_values in zip(slots, values):
            last = first + trial_values.size
            if rule == RULE_RANDOM:
                missed = guesses[first:last] != trial_values
            else:
                missed = np.array([
                    not (-delta - cfg.sigma * math.sqrt(2.0) * v_i) * delta < 0.0
                    for v_i in v[first:last]
                ], dtype=bool)
            first = last
            replay.append((trial_slots, missed))
    return replay, (coins.bit_generator, decisions.bit_generator)


def _judge_sessions(
    seed, trials, ks, ns, d_ae, d_be, cfg, rule, metric, block_slots=BLOCK_SLOTS, draw_fixed=False
):
    """Successes per (k, n), judged trial by trial on each trial's own session
    as _replay_trials replays it by hand. Also returns its two streams."""
    replay, streams = _replay_trials(seed, trials, max(ns), d_ae, d_be, cfg, rule, block_slots, draw_fixed)
    counts = np.zeros((len(ks), len(ns)), dtype=int)
    for trial_slots, missed in replay:
        for j, n in enumerate(ns):
            generated = int((trial_slots < n).sum())
            for i, k in enumerate(ks):
                if metric == METRIC_WHOLE_KEY:
                    counts[i, j] += generated >= k and bool(missed[:k].any())
                else:
                    counts[i, j] += int(missed[:generated].sum()) >= k
    return counts, streams


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
    # ns arrive unsorted and repeated; above 2,048 slots a batch holds at most
    # 7 trials, so 40 trials span several batches
    d_ae, d_be = distances
    cfg = ScenarioConfig(sigma=sigma)
    streams = _slice_streams(seed)
    delta = delta_mean_pathloss(d_ae, d_be, cfg.gamma)
    counts = slice_successes(*streams, trials, ks, ns, Verdict(delta, sigma, rule), metric)
    expected, replay = _judge_sessions(seed, trials, ks, ns, d_ae, d_be, cfg, rule, metric)
    assert counts.tolist() == expected.tolist()
    assert _next_words(*streams) == _next_words(*replay)


@settings(max_examples=40, deadline=None)
@given(
    block_slots=st.integers(1, 16),
    ks=st.lists(st.integers(0, 30), min_size=1, max_size=4).map(lambda ks: [*ks, 1, ks[0]]),
    ns=st.lists(st.integers(1, 80), min_size=1, max_size=4).map(lambda ns: [*ns, ns[0]]),
    distances=st.sampled_from([(52.0, 2.0), (70.0, 20.0), (30.0, 30.0)]),
    sigma=st.sampled_from([0.0, 8.0]),
    rule=st.sampled_from([RULE_ML, RULE_RANDOM]),
    metric=st.sampled_from([METRIC_PER_BIT, METRIC_WHOLE_KEY]),
    trials=st.integers(100, 200),
    seed=st.integers(0, 2**32),
)
def test_gathered_counts_over_many_shrunk_blocks(
    block_slots, ks, ns, distances, sigma, rule, metric, trials, seed
):
    # BLOCK_SLOTS shrunk in the engine and the replay alike, so a trial longer
    # than BLOCK_SLOTS is a one-trial batch that the engine draws and judges
    # over several blocks, with one decision call each, and the replay in one
    # call. The engine counts each block's completing slots as the block ends,
    # over the counted k (k = 1 always is one) whose completing bit the block
    # holds; 100 trials, in batches of at most BLOCK_SLOTS (under 17) trials,
    # span at least seven blocks
    d_ae, d_be = distances
    cfg = ScenarioConfig(sigma=sigma)
    streams = _slice_streams(seed)
    delta = delta_mean_pathloss(d_ae, d_be, cfg.gamma)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fhkex.experiments, "BLOCK_SLOTS", block_slots)
        counts = slice_successes(*streams, trials, ks, ns, Verdict(delta, sigma, rule), metric)
    expected, replay = _judge_sessions(
        seed, trials, ks, ns, d_ae, d_be, cfg, rule, metric, block_slots
    )
    assert counts.tolist() == expected.tolist()
    assert _next_words(*streams) == _next_words(*replay)


# one trial of 200 slots with every k from 0 to n_max + 1 counted, repeated and
# out of order: in blocks of 7 slots the trial spans 29 blocks, and by the
# later ones most k completed in an earlier block; by default it is one block.
# At d_be 20 and sigma 8 (p_g about 0.95) about 5 of its bits are secret and
# 100 generated, so the per-bit counts stop at a small k and the whole-key ones
# near k = 100
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("block_slots", [BLOCK_SLOTS, 7])
@pytest.mark.parametrize("metric", [METRIC_PER_BIT, METRIC_WHOLE_KEY])
def test_every_key_size_of_a_trial_that_spans_blocks(monkeypatch, metric, block_slots, seed):
    n_max = 200
    ks = [*range(n_max + 2)][::-1] + [*range(0, n_max + 2, 3)]
    ns = (n_max, 1, 57, 130, 57)
    cfg = ScenarioConfig(sigma=8.0)
    delta = delta_mean_pathloss(70.0, 20.0, cfg.gamma)
    streams = _slice_streams(seed)
    monkeypatch.setattr(fhkex.experiments, "BLOCK_SLOTS", block_slots)
    counts = slice_successes(*streams, 1, ks, ns, Verdict(delta, cfg.sigma, RULE_ML), metric)
    expected, replay = _judge_sessions(seed, 1, ks, ns, 70.0, 20.0, cfg, RULE_ML, metric, block_slots)
    assert counts.tolist() == expected.tolist()
    assert _next_words(*streams) == _next_words(*replay)
    assert any(row[0] for k, row in zip(ks, counts) if k > 1)  # more than one bit, at n = n_max


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("trials", [0, 1, 2, 7, 8_100])
def test_skipped_uniforms_leave_the_stream_where_drawn_ones_do(tied, trials):
    # a fixed ML verdict (tied: Eve equidistant, every call abstains; else
    # sigma 0, every call correct) skips its decision uniforms by reading
    # nothing from its decision stream, which no other draw shares: its counts,
    # and where its coin stream ends, are those of a replay that draws every
    # uniform. 20 slots make batches of 819 trials, so 8,100 trials take ten
    d_ae, d_be, sigma = (60.0, 60.0, 8.0) if tied else (70.0, 20.0, 0.0)
    cfg = ScenarioConfig(sigma=sigma)
    delta = 0.0 if tied else delta_mean_pathloss(d_ae, d_be, cfg.gamma)
    ks, ns = (0, 1, 4, 12), (5, 20)
    coins, decisions = _slice_streams(trials)
    counts = slice_successes(coins, decisions, trials, ks, ns, Verdict(delta, sigma, RULE_ML), METRIC_PER_BIT)
    expected, (replay_coins, replay_decisions) = _judge_sessions(
        trials, trials, ks, ns, d_ae, d_be, cfg, RULE_ML, METRIC_PER_BIT, draw_fixed=True
    )
    assert counts.tolist() == expected.tolist()
    assert _next_words(coins) == _next_words(replay_coins)
    assert _next_words(decisions) == _next_words(stream((trials,), DECISIONS))  # untouched
    assert counts[2:].any() == (tied and trials > 0)  # missed bits only where Eve ties


# a d_be 2 m slice at sigma 8, where p_g = 0.999994 and most blocks miss no bit;
# a d_be 20 m one, whose shrunk blocks of 1 or 7 slots often miss none, so a
# whole key can complete in a block that was skipped per bit; and an
# equidistant sigma 0 slice, whose fixed verdict reads no decision word.
# 600 slots make a default batch of 27 trials, whose 32,400 coins end inside
# a 64-bit word, so each batch drops the rest of its last word. 2,000 trials
# of 600 slots miss about 3.6 bits at d_be 2; shrunk blocks hold one trial
# each, and judge 12 trials
@pytest.mark.parametrize("block_slots", [BLOCK_SLOTS, 1, 7])
@pytest.mark.parametrize("metric", [METRIC_PER_BIT, METRIC_WHOLE_KEY])
@pytest.mark.parametrize("d_ae, d_be, sigma", [(52.0, 2.0, 8.0), (70.0, 20.0, 8.0), (60.0, 60.0, 0.0)])
def test_skipped_draws_and_blocks_keep_the_replayed_counts(
    monkeypatch, d_ae, d_be, sigma, metric, block_slots
):
    ks, ns = (1, 2, 64, 128), (60, 300, 600)
    trials = 2000 if block_slots == BLOCK_SLOTS else 12
    cfg = ScenarioConfig(sigma=sigma)
    delta = 0.0 if d_ae == d_be else delta_mean_pathloss(d_ae, d_be, cfg.gamma)
    streams = _slice_streams(35)
    monkeypatch.setattr(fhkex.experiments, "BLOCK_SLOTS", block_slots)
    counts = slice_successes(*streams, trials, ks, ns, Verdict(delta, sigma, RULE_ML), metric)
    expected, replay = _judge_sessions(35, trials, ks, ns, d_ae, d_be, cfg, RULE_ML, metric, block_slots)
    assert counts.tolist() == expected.tolist()
    assert _next_words(*streams) == _next_words(*replay)
    if d_be != 2.0 or block_slots == BLOCK_SLOTS:
        assert counts.any()  # keys complete, among blocks that were skipped
    if d_be == 2.0 and metric == METRIC_PER_BIT:
        assert counts[-1].tolist() == [0, 0, 0]  # p_g near 1: no trial misses 128 bits


@pytest.mark.parametrize("metric", [METRIC_PER_BIT, METRIC_WHOLE_KEY])
@pytest.mark.parametrize("d_ae, d_be, sigma", [(60.0, 60.0, 8.0), (70.0, 20.0, 0.0), (60.0, 60.0, 0.0)])
def test_fixed_verdict_draws_no_decision(d_ae, d_be, sigma, metric):
    # at delta = 0 every ML call ties and at sigma = 0 every one is correct,
    # so a sweep slice reads no decision word
    class Refusing:
        def random_raw(self, *args):
            raise AssertionError("drew a decision word at a fixed verdict")

    cfg = ScenarioConfig(sigma=sigma)
    delta = 0.0 if d_ae == d_be else delta_mean_pathloss(d_ae, d_be, cfg.gamma)
    coins = stream((36,), COINS)
    counts = slice_successes(coins, Refusing(), 40, (0, 1, 30), (20, 100), Verdict(delta, sigma, RULE_ML), metric)
    expected, (replay_coins, _) = _judge_sessions(36, 40, (0, 1, 30), (20, 100), d_ae, d_be, cfg, RULE_ML, metric)
    assert counts.tolist() == expected.tolist()
    assert _next_words(coins) == _next_words(replay_coins)


def _reference_classify_bit_rounds(values, sample_alice, sample_bob, delta):
    """The engine's earlier ML rule, kept verbatim as the reference: which
    sample sits on f0 follows the bit value; score 0 abstains."""
    on_f0_is_alice = values == 0
    rss_f0 = np.where(on_f0_is_alice, sample_alice, sample_bob)
    rss_f1 = np.where(on_f0_is_alice, sample_bob, sample_alice)
    score = (rss_f0 - rss_f1) * delta
    return np.where(score > 0.0, values == 1, np.where(score < 0.0, values == 0, False))


# One bit round's shadowing draw u and decision word w, any 64-bit word; or,
# as (step, low bits), a word whose uniform U = (w >> 11) 2^-53 lies within two
# steps of 2^-53 of the tie Phi(-delta / (sigma sqrt 2)), where v = Phi^-1(U)
# makes A - B round to 0 or to a tiny gap of either sign, with any of the 11
# low bits that U ignores
_NOISE_ROW = st.one_of(
    st.tuples(st.floats(-6.0, 6.0), st.integers(0, 2**64 - 1)),
    st.tuples(st.floats(-6.0, 6.0), st.tuples(st.integers(-2, 2), st.integers(0, 2**11 - 1))),
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
    tie = 0.5 * math.erfc(delta / (2.0 * sigma)) if sigma > 0.0 else 0.5  # at sigma 0 no draw is one
    values = np.array([value for value, _ in rows])
    u = np.array([u for _, (u, _) in rows])

    def word(w):
        if isinstance(w, int):
            return w
        step, low = w
        return min(max(math.floor(tie * 2.0**53) + step, 0), 2**53 - 1) << 11 | low

    words = np.array([word(w) for _, (_, w) in rows], dtype=np.uint64)
    draws = np.array([(w >> 11) * 2.0**-53 for w in words.tolist()])
    verdict = Verdict(delta, sigma, RULE_ML)
    missed = verdict.missed(words, values)
    mask, abstain = ~missed, verdict.ties(draws, missed)
    assert mask.dtype == bool
    assert not mask[abstain].any()  # an abstention is never correct
    cut = verdict.cut
    if cut is not None:  # the word thresholds compare U with the cut
        assert np.array_equal(mask, draws > cut if delta > 0.0 else draws < cut)
    if delta == 0.0:
        assert abstain.all()
    elif sigma == 0.0:
        assert mask.all() and not abstain.any()
    else:
        # only the tie abstains, and every draw at it does, unless no draw is at
        # it: then a draw of 0, read as U_FLOOR, lies on delta's side
        assert np.array_equal(abstain, (draws == tie) & (tie > U_FLOOR))

    # v = Phi^-1(U) decides as well: the reference rule on the sample gap
    # A - B = -delta - sigma sqrt(2) v, wherever it is clear of a tie
    v = normal_quantile(draws)
    alice_minus_bob = np.array([-delta - sigma * math.sqrt(2.0) * v_i for v_i in v.tolist()])
    expected = _reference_classify_bit_rounds(values, alice_minus_bob, np.zeros(values.size), delta)
    clear = (np.abs(alice_minus_bob) > 1e-9) & ~abstain
    assert np.array_equal(mask[clear], expected[clear])
    # the written samples, built from (u, v), agree with U's call off near-ties
    samples = rss_samples(u, v, d_ae, d_be, cfg)
    written = samples[:, 0] - samples[:, 1]
    clear = (np.abs(written) > 1e-9) & ~abstain
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
    # the engine hands the verdict the bit values of a block only under the
    # random rule: an ML block indexes no coin value, in a session or a sweep
    seen = []
    missed = Verdict.missed
    monkeypatch.setattr(
        Verdict, "missed", lambda self, words, values=None: seen.append(values) or missed(self, words, values),
    )
    seed = 1000 * trials + n
    coins, decisions = _slice_streams(seed)
    block = draw_coins(coins, 2 * trials * n).reshape(-1, 2)
    generated = _generated(block)
    (judged,) = session_blocks(
        decisions, np.random.Generator(stream((seed,), TRACE)), [block], 70.0, 20.0, ScenarioConfig(sigma=8.0),
        rule,
    )
    correct = judged.correct
    bits = draw_coins(stream((seed,), COINS), 2 * trials * n).reshape(trials, 2 * n)
    a, b = bits[:, 0::2], bits[:, 1::2]
    assert generated.dtype == bool
    assert np.array_equal(generated, (a != b).ravel())
    assert correct.size == np.count_nonzero(a != b)
    if rule == RULE_RANDOM:
        assert np.array_equal(seen[0], a[a != b])
    else:
        assert seen[0] is None
    delta = delta_mean_pathloss(70.0, 20.0, 3.5)
    slice_successes(*_slice_streams(seed), trials, (1,), (n,), Verdict(delta, 8.0, rule))
    assert len(seen) > 1 and [values is None for values in seen] == [rule == RULE_ML] * len(seen)


@pytest.mark.parametrize("rule", [RULE_ML, RULE_RANDOM])
@pytest.mark.parametrize("d_ae, d_be", [(70.0, 20.0), (40.0, 40.0)])
def test_batch_of_trials_judges_as_one_long_session(monkeypatch, rule, d_ae, d_be):
    # a sweep batch of T trials of n slots is one session of T n slots: the
    # same coins, decision words and verdicts, and the same next words
    trials, n, seed = 5, 37, 8
    cfg = ScenarioConfig(sigma=8.0)
    coins, decisions = _slice_streams(seed)
    bits = draw_coins(coins, 2 * trials * n).reshape(-1, 2)
    delta = delta_mean_pathloss(d_ae, d_be, cfg.gamma)
    generated, words, missed = _judge_block(decisions, bits, delta, cfg.sigma, rule)
    correct, abstain = ~missed, Verdict(delta, cfg.sigma, rule).ties((words >> 11) * 2.0**-53, missed)
    monkeypatch.setattr(fhkex.experiments, "BLOCK_SLOTS", 16)  # the session spans 12 blocks
    session, *session_streams_ = _engine_session(seed, trials * n, d_ae, d_be, cfg, rule)
    assert np.array_equal(generated, session.alice != session.bob)
    assert np.array_equal(correct, session.correct)
    assert np.array_equal(abstain, session.abstain)
    if rule == RULE_ML and d_ae == d_be:
        assert abstain.all()  # Eve equidistant: every ML call ties
    assert _next_words(coins, decisions) == _next_words(*session_streams_[:2])


#: The most a one-trial slice may hold at once, in bytes, whatever its length:
#: one block's arrays (about 30 bytes per slot of BLOCK_SLOTS, measured) and
#: numpy's first-call allocations
PEAK_PER_BLOCK = 2**21


@pytest.mark.parametrize("rule", [RULE_ML, RULE_RANDOM])
@pytest.mark.parametrize("metric", [METRIC_PER_BIT, METRIC_WHOLE_KEY])
def test_long_trial_holds_its_coins_plus_one_block(rule, metric):
    # a one-trial batch draws its coins block by block, so it holds one block
    # of them whatever its length; its coins held whole would take 4 MB here
    n = 2_000_000
    delta = delta_mean_pathloss(70.0, 20.0, 3.5)
    tracemalloc.start()
    try:
        counts = slice_successes(
            *_slice_streams(17), 1, (0, 1, 64, 100_000), (n // 2, 16_385, n), Verdict(delta, 8.0, rule),
            metric,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_PER_BLOCK
    assert counts[2].tolist() == [1, 1, 1]  # 64 secret bits, or generated bits, come early


def test_counting_every_key_size_holds_the_counts_plus_one_block(monkeypatch):
    # a block takes only the counted k whose completing bit it holds, so its
    # (trial, k) arrays stay within BLOCK_SLOTS cells however many k are
    # counted. Counting every k of a one-trial slice adds to what counting
    # k = 1 holds only the slice's six arrays of one cell per k (n is single
    # here): the keys as a list and as an array, their code shifts, the edges,
    # the histogram and the returned counts. Arrays of (trial, k) cells over
    # every k would add two more at once
    n, block = 2**14, 256
    monkeypatch.setattr(fhkex.experiments, "BLOCK_SLOTS", block)
    delta = delta_mean_pathloss(70.0, 20.0, 3.5)
    every_k = tuple(range(1, n + 1))

    def peak(ks, metric):
        streams = _slice_streams(18)
        tracemalloc.start()
        try:
            counts = slice_successes(*streams, 1, ks, (n,), Verdict(delta, 8.0, RULE_ML), metric)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top, counts

    for metric in (METRIC_PER_BIT, METRIC_WHOLE_KEY):
        peak((1,), metric)  # numpy's first calls allocate once, outside the measure
        one, (one_count,) = peak((1,), metric)
        every, counts = peak(every_k, metric)
        assert every < one + 6 * n * 8 + 16 * block * 8, metric
        assert counts[0].tolist() == one_count.tolist()
        assert counts[:, 0].any() and not counts[:, 0].all()  # keys complete, not every one


def test_engine_counts_every_trial_across_blocks():
    n = 500
    trials = 3 * (BLOCK_SLOTS // n) + 4  # three full batches and a partial one
    delta, sigma = delta_mean_pathloss(70.0, 20.0, 3.5), ScenarioConfig().sigma
    counts = slice_successes(*_slice_streams(5), trials, (0,), (1, n), Verdict(delta, sigma))
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
        streams = _slice_streams(6)
        counts = slice_successes(*streams, trials, ks, ns, Verdict(delta, sigma, rule), metric)
        expected, replay = _judge_sessions(6, trials, ks, ns, 70.0, 20.0, cfg, rule, metric)
        assert counts.tolist() == expected.tolist(), (rule, metric)
        assert _next_words(*streams) == _next_words(*replay)
        # k = 0: every trial per bit, none for the whole key; k > n: none
        assert counts[0].tolist() == [trials if metric == METRIC_PER_BIT else 0] * len(ns)
        assert counts[-len(huge):].tolist() == [[0] * len(ns)] * len(huge)


@pytest.mark.parametrize("metric", [METRIC_PER_BIT, METRIC_WHOLE_KEY])
@pytest.mark.parametrize("rule", [RULE_ML, RULE_RANDOM])
def test_count_steps_at_the_slot_that_completes_the_key(rule, metric):
    # one trial, whose key completes at slot s (read off the hand replay): it
    # fails at n = s and succeeds from n = s + 1. Seed 9: the random-rule
    # trial of seed 8 misses its first bit, which leaves no k >= 1 with no
    # missed bit among its first k
    seed, n_max = 9, 400
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
            *_slice_streams(seed), 1, (k,), (s, s + 1, n_max), Verdict(delta, cfg.sigma, rule), metric
        )
        assert counts.tolist() == [[0, 1, 1]], k
    counts = slice_successes(
        *_slice_streams(seed), 1, never, (1, n_max), Verdict(delta, cfg.sigma, rule), metric
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


def test_row_limit_refuses_a_grid_before_allocating():
    # 10^6 key sizes by 1,000 n values simulate only 1,000 slots, well within
    # the slot budget, but would write 10^9 rows: refused before an axis is copied
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=f"1000000000 grid points .* exceed the row limit {ROW_LIMIT}"):
            SweepSpec(k=range(1, 10**6 + 1), n_rounds=range(1, 1001), d_be=(20.0,), sigma=(8.0,), trials=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    side = math.isqrt(ROW_LIMIT)
    assert SweepSpec(k=range(side), n_rounds=range(1, ROW_LIMIT // side + 1), d_be=(20.0,), sigma=(8.0,)).grid_size <= ROW_LIMIT
    with pytest.raises(BudgetError):
        SweepSpec(k=range(side), n_rounds=range(1, ROW_LIMIT // side + 2), d_be=(20.0,), sigma=(8.0, 2.0))


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


@pytest.mark.parametrize("metric", [METRIC_PER_BIT, METRIC_WHOLE_KEY])
@pytest.mark.parametrize("rule", [RULE_ML, RULE_RANDOM])
def test_slice_rows_do_not_depend_on_the_other_slices(rule, metric):
    # a slice's streams are keyed by (base_seed, d_be, sigma), not by its place
    # in the grid: its rows are the same alone, among other distances and
    # sigmas, in any order, and repeated. Two batches of 40 trials at n = 400
    def rows(d_be, sigma, key=(20.0, 8.0)):
        spec = _small_spec(
            k=(0, 3, 16), n_rounds=(400, 30, 120), d_be=d_be, sigma=sigma, trials=70,
            rule=rule, metric=metric,
        )
        return [r for r in sweep(spec) if (r.d_be, r.sigma) == key]

    alone = rows((20.0,), (8.0,))
    assert len(alone) == 9 and any(0.0 < r.p_hat < 1.0 for r in alone)
    assert rows((35.0, 2.0, 20.0), (0.0, 8.0)) == alone
    assert rows((20.0, 35.0), (8.0, 0.0)) == alone
    assert rows((20.0, 20.0), (8.0,)) == [r for r in alone for _ in range(2)]  # each row, twice
    assert rows((2.0, 20.0), (8.0,), key=(2.0, 8.0)) == rows((2.0,), (0.0, 8.0), key=(2.0, 8.0))
    assert rows((20.0,), (-0.0,), key=(20.0, 0.0)) == rows((20.0,), (0.0,), key=(20.0, 0.0))


@pytest.mark.parametrize("m", [0, 1, 7, 8_100])
def test_decision_words_are_generator_uniforms_and_top_bit_guesses(m):
    # a decision is one raw 64-bit word w: the ML rule reads it as
    # Generator.random does, U = (w >> 11) 2^-53, and the random rule's guess
    # is its top bit. A numpy release that changed Generator.random fails here
    # instead of moving every pinned byte silently
    seed_seq = np.random.SeedSequence([m, DECISIONS])
    words = np.random.PCG64(seed_seq).random_raw(m)
    uniforms = np.random.Generator(np.random.PCG64(seed_seq)).random(m)
    assert uniforms.tolist() == [(w >> 11) * 2.0**-53 for w in words.tolist()]
    for delta in (-4.0, 19.0):  # Eve nearer Alice or nearer Bob: the cut above or below 1/2
        verdict = Verdict(delta, 8.0, RULE_ML)
        cut = verdict.cut
        named = ~verdict.missed(words)
        assert np.array_equal(named, uniforms > cut if delta > 0.0 else uniforms < cut)
    ones = np.ones(m, dtype=np.uint8)
    named = ~Verdict(19.0, 8.0, RULE_RANDOM).missed(words, ones)
    assert named.tolist() == [w >> 63 == 1 for w in words.tolist()]


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


#: n of 1-60, 999, 10^4 and 10^6, unsorted and repeated
_COLUMN_NS = (10**6, *range(60, 0, -1), 999, 10**4, 999, 7, 10**6)


def _edge_ks(ns, p):
    """k of 0, at each mode, at n and past it, and one either side of each
    window edge of each n, as the scalar walk finds them."""
    ks = {0}
    for n in ns:
        mode = min(n, int((n + 1) * p))
        ks.update((mode, n, n + 1))
        if 0.0 < p < 1.0:
            hi = mode + len(_walk(n, mode, p / (1.0 - p), window_floor(n), [1.0])) - 1
            lo = mode - len(_walk(n, n - mode, (1.0 - p) / p, window_floor(n), []))
            ks.update(k for edge in (lo, hi) for k in range(edge - 1, edge + 3) if k >= 0)
    return sorted(ks)


def _hex(columns):
    return [[float.hex(value) for value in column] for column in columns]


# p_b = 1/2 takes the mirror, its float neighbours the two-sided walk; 0 and 1 the certain branch
@pytest.mark.parametrize("p", [
    0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 0.25, 1e-3, 0.999, 3e-6,
    float(fading_pb(20.0, 8.0)), 0.0, 1.0,
], ids=float.hex)
def test_key_columns_are_key_probs_bit_for_bit(p):
    ks = _edge_ks(set(_COLUMN_NS), p)
    got = _key_columns(ks, _COLUMN_NS, p)
    assert _hex(got) == _hex(key_probs(ks, n, p) for n in _COLUMN_NS)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("pg", [0.0, 0.5, pg_closed_form(3.7, 8.0), 1.0 - 2.0**-53, 1.0])
def test_analytic_columns_are_key_probs_bit_for_bit(metric, pg):
    # per bit, the secret-bit tail (p_b = 1/2 at p_g = 0: the mirror); for the whole
    # key, at least k generated bits (p = 1/2) and a missed one among the first k
    whole_key = metric == METRIC_WHOLE_KEY
    p = 1.0 - COLLISION_PROB if whole_key else float(secret_bit_prob(COLLISION_PROB, pg))
    ks = _edge_ks(set(_COLUMN_NS), p)
    want = [key_probs(ks, n, p) for n in _COLUMN_NS]
    if whole_key:
        want = [[t * (1.0 - pg**k) for t, k in zip(column, ks)] for column in want]
    assert _hex(_analytic_columns(ks, _COLUMN_NS, pg, metric)) == _hex(want)


@pytest.mark.parametrize("p", [0.5, 0.25, 1e-3, 0.999])
def test_walks_too_short_are_walked_again(p):
    # a width of 2 holds only the mode term and one factor: every row longer is walked again, wider
    ns = np.array([1, 2, 3, 60, 999, 10**4, 7])
    modes = np.minimum(ns, ((ns + 1) * p).astype(np.int64))
    floors = np.array([window_floor(n) for n in ns.tolist()])
    for starts, ratio in ((modes, p / (1.0 - p)), (ns - modes, (1.0 - p) / p)):
        want = [_walk(n, s, ratio, f, [1.0]) for n, s, f in zip(ns.tolist(), starts.tolist(), floors.tolist())]
        assert _hex(_walks(ns, starts, floors, ratio, 2)) == _hex(want)
        assert max(map(len, want)) > 2


def test_key_columns_walk_one_chunk_at_a_time():
    # 10^5 n values: the columns and the per-n arrays take about 20 MB; their
    # windows walked at once would add arrays of 10^5 x 52 cells, 88 MB more
    ns = tuple(10**4 + (i * 7919) % 10**5 for i in range(10**5))
    _key_columns((2,), ns[:10], 1e-7)  # numpy's first calls allocate once, outside the measure
    tracemalloc.start()
    try:
        columns = _key_columns((2,), ns, 1e-7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert _hex(columns[:50]) == _hex(key_probs((2,), n, 1e-7) for n in ns[:50])


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
    coins, decisions = _slice_streams(17)
    rate = estimate_rule_correctness(
        coins, decisions, 10**5, 70.0, 20.0, ScenarioConfig(sigma=8.0), rule=RULE_RANDOM
    )
    assert rate == pytest.approx(0.5, abs=0.01)


# ids name the case, not its pins, so a re-pin keeps them
@pytest.mark.parametrize("rule, sigma, rate, next_draw", [
    pytest.param(RULE_ML, 0.0, 1.0, 617421993, id="ml-pairwise-0.0"),
    pytest.param(RULE_ML, 8.0, 0.9526, 617421993, id="ml-pairwise-8.0"),
    pytest.param(RULE_RANDOM, 0.0, 0.495, 617421993, id="random-guess-0.0"),
    pytest.param(RULE_RANDOM, 8.0, 0.495, 617421993, id="random-guess-8.0"),
])
def test_estimate_rule_correctness_pinned_draws(rule, sigma, rate, next_draw):
    # frozen from a stand-alone per-bit loop over the same draws, chunk edges
    # included: per chunk, coins read bit by bit, least significant first,
    # from the coin stream's Generator.bytes of whole 64-bit words, then per
    # bit one decision word: a uniform U from Generator.random (scored as
    # (-delta - sigma sqrt(2) v) * delta < 0 for
    # v = statistics.NormalDist().inv_cdf(U)) or a guess, the word's top bit.
    # next_draw is the top half of the decision stream's next word
    coins, decisions = _slice_streams(20261018)
    cfg = ScenarioConfig(sigma=sigma)
    got = estimate_rule_correctness(coins, decisions, 5000, 70.0, 20.0, cfg, rule, chunk=1500)
    assert got == rate
    assert decisions.random_raw() >> 32 == next_draw


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


def test_sweep_reproducible():
    spec = _small_spec()
    text_1 = _csv_text(sweep(spec))
    text_2 = _csv_text(sweep(spec))
    assert text_1 == text_2
    assert text_1 != _csv_text(sweep(_small_spec(base_seed=12)))


@pytest.mark.parametrize("rule", [RULE_ML, RULE_RANDOM])
def test_sweep_starts_no_thread(monkeypatch, rule):
    # six slices, each over two blocks at n = 400
    spec = _small_spec(
        k=(0, 3, 16), n_rounds=(400, 30, 120), d_be=(2.0, 20.0, 35.0), sigma=(0.0, 8.0),
        trials=70, rule=rule,
    )
    expected = sweep(spec)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    assert sweep(spec) == expected


@pytest.mark.parametrize("distances", [2, 3])
@pytest.mark.parametrize("failing", [1], ids=["slice-1"])
def test_sweep_reraises_a_slice_failure_and_starts_no_later_slice(monkeypatch, failing, distances):
    # two sigmas by 2 or 3 distances: 4 or 6 slices, of which slice 1 raises
    boom = ValueError("slice failed")
    started = []
    exact = fhkex.experiments.slice_successes

    def successes(coins, *args):
        # a slice is known by its streams' seed: base seed, d_be and sigma bits
        key = tuple(np.array(coins.seed_seq.entropy[1:3], dtype=np.uint64).view(float).tolist())
        started.append(key)
        if key == slices[failing]:
            raise boom
        return exact(coins, *args)

    monkeypatch.setattr(fhkex.experiments, "slice_successes", successes)
    spec = _small_spec(d_be=(2.0, 20.0, 35.0, 60.0)[:distances], sigma=(0.0, 8.0), trials=5)
    slices = list(itertools.product(spec.d_be, spec.sigma))
    with pytest.raises(ValueError) as raised:
        sweep(spec)
    assert raised.value is boom
    assert started == slices[:failing + 1]


# Every column but p_analytic, whose closed form may move in its last bits;
# the Monte Carlo columns are a frozen function of the spec. Both orders of
# sigma, unsorted and repeated n, and trial counts spanning several blocks.
# Re-pinned when the draws last changed (one PCG64 stream per purpose, slices
# keyed by (base_seed, d_be, sigma), coins and decisions read as raw words),
# after the hand replay of test_slice_successes_judges_each_trial_session and
# the engine-against-oracle tests passed on the new draws.
_FROZEN_SWEEPS = [
    (dict(k=(0, 3, 16), n_rounds=(40, 10, 120, 40), d_be=(25.0, 60.0), sigma=(0.0, 8.0),
          trials=70, rule=RULE_ML, metric=METRIC_PER_BIT, geometry=GEOMETRY_EQUIDISTANT,
          base_seed=1),
     "92098713ae1f969c7cb8f37fd1647a795b6a0e3048a8db4c4b23fc1a40042be8"),
    (dict(k=(0, 1, 4, 12), n_rounds=(8, 30, 600), d_be=(2.0, 20.0), sigma=(0.0, 8.0),
          trials=60, rule=RULE_ML, metric=METRIC_WHOLE_KEY, geometry=GEOMETRY_CANONICAL,
          base_seed=2),
     "345032d1cbadf4f51b6e2a764c9791f2846b8e0445834579afcd0c208e700c48"),
    (dict(k=(2, 0, 9), n_rounds=(50, 5, 200), d_be=(20.0, 35.0), sigma=(8.0, 0.0),
          trials=90, rule=RULE_RANDOM, metric=METRIC_PER_BIT, geometry=GEOMETRY_CANONICAL,
          base_seed=3),
     "455fca40956df6a1328f9c4c9545aa25671b2825acb6ab6464e946ad78a5e62c"),
    (dict(k=(0, 2, 5), n_rounds=(300, 12, 12, 90), d_be=(30.0,), sigma=(0.0, 8.0),
          trials=80, rule=RULE_RANDOM, metric=METRIC_WHOLE_KEY, geometry=GEOMETRY_EQUIDISTANT,
          base_seed=4),
     "b7a57fd3ab4c4d04918fc63d665c491658ac22f61789c102e99b20a37fada669"),
    # trials longer than BLOCK_SLOTS, one per batch, judged over several blocks:
    # unsorted n at the block edge 16,384 / 16,385, and k whose completing
    # slot, or (whole key) first secret bit, lies in a later block; re-pinned
    # with the draws, as above.
    (dict(k=(0, 1, 2, 300, 500), n_rounds=(16385, 5000, 40000, 16384), d_be=(20.0, 3.0),
          sigma=(8.0,), trials=3, rule=RULE_ML, metric=METRIC_PER_BIT,
          geometry=GEOMETRY_CANONICAL, base_seed=7),
     "fff48aa74586c10811b681ed0b99f6e83f772ed9cd1c59041b9f4e5e79d2aa80"),
    (dict(k=(1, 8, 9000, 12000, 19000), n_rounds=(30000, 16384, 100, 40000, 16385),
          d_be=(3.0, 20.0), sigma=(8.0, 0.0), trials=3, rule=RULE_ML, metric=METRIC_WHOLE_KEY,
          geometry=GEOMETRY_CANONICAL, base_seed=8),
     "4293aa6ef6a9f47779eeb586bf9605cdeaa576f92a78809880aead7a2a5631f2"),
    (dict(k=(0, 5, 8250, 10000), n_rounds=(16384, 25000, 16385, 300), d_be=(30.0,),
          sigma=(0.0, 8.0), trials=3, rule=RULE_RANDOM, metric=METRIC_WHOLE_KEY,
          geometry=GEOMETRY_EQUIDISTANT, base_seed=9),
     "828c2a6e65ee8be7f34fc745b8af24ff1959602e4fcf3b3d141df1b973d9feaa"),
]


@pytest.mark.parametrize(
    "spec, digest", _FROZEN_SWEEPS,
    ids=["ml-bit", "ml-key", "rand-bit", "rand-key", "ml-bit-long", "ml-key-long", "rand-key-long"],
)
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
     "3388d2085fb532ab9592335817e798448e01ffd0bf6a8311ca3709dd1d92e8db"),
    (dict(k=(0, 8, 64), n_rounds=tuple(range(60, 301, 40)), d_be=(60.0,), sigma=(0.0,),
          trials=101, rule=RULE_ML, metric=METRIC_PER_BIT, geometry=GEOMETRY_EQUIDISTANT,
          base_seed=6),
     "bd347228f18b00ade0aeee7f46c6d04e7768ac4b43416bbd2b01f662e8b6697e"),
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
    # blank lines between rows are skipped
    assert read_result_csv(io.StringIO(text.replace("\n", "\n\n"))) == rows


@pytest.mark.parametrize("text, header", [("a,b,c\n", "['a', 'b', 'c']"), ("", "None")])
def test_result_csv_reader_refuses_another_header(text, header):
    with pytest.raises(ValueError) as info:
        read_result_csv(io.StringIO(text))
    assert str(info.value) == f"unexpected result CSV header: {header}"


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
