"""Acceptance gate: every criterion with its stated tolerance, one line each."""

import contextlib
import io
import itertools
import math
import time
from pathlib import Path

import pytest
from scipy.special import bdtr, bdtrc

from fhkex.adversary import RULE_ML, RULE_RANDOM, RULES, pg_closed_form, simulate_eavesdropper
from fhkex.analysis import COLLISION_PROB, KeyRequest, fading_pb, key_prob, min_transmissions, secret_bit_prob
from fhkex.channel import delta_mean_pathloss
from fhkex.cli import EXIT_OK, main
from fhkex.experiments import (
    METRIC_PER_BIT,
    METRIC_WHOLE_KEY,
    METRICS,
    FrontierRow,
    SweepSpec,
    frontier,
    session_streams,
    simulate_session_counts,
    sweep,
    write_result_csv,
)
from fhkex.protocol import run_session
from fhkex.scenario import GEOMETRY_CANONICAL, GEOMETRY_EQUIDISTANT, ScenarioConfig, build_deployment
from oracle import estimate_rule_correctness

TOY_ALICE = (0, 0, 1, 0, 0, 1)
TOY_BOB = (0, 1, 0, 1, 0, 1)

# Oracle-exact minimum transmissions at p_b = 0.5, target 0.99, frozen from
# exact binomial summation (scipy.stats.binom.sf cross-checked against
# Fraction arithmetic and 50-digit mpmath) before the build.
FROZEN_MIN_N = {64: 156, 128: 295, 256: 567}
NOMINAL_MIN_N = {64: 160, 128: 300, 256: 570}


def _csv_text(rows) -> str:
    buf = io.StringIO()
    write_result_csv(rows, buf)
    return buf.getvalue()


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def test_criterion_1_scripted_toy_run():
    alice, bob, key = run_session(ScenarioConfig(), alice_bits=TOY_ALICE, bob_bits=TOY_BOB)
    assert [slot for slot, (a, b) in enumerate(zip(alice, bob), start=1) if a == b] == [1, 5, 6]
    assert key == [0, 1, 0]

    best = min(
        _timed(lambda: run_session(ScenarioConfig(), alice_bits=TOY_ALICE, bob_bits=TOY_BOB))
        for _ in range(5)
    )
    assert best < 1e-3, f"scripted run took {best * 1e3:.3f} ms"
    _report("criterion-1 scripted toy run", f"key 010, collisions 1/5/6, {best * 1e6:.0f} us")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_minimum_transmissions():
    start = time.perf_counter()
    for k, frozen in FROZEN_MIN_N.items():
        got = min_transmissions(KeyRequest(k=k, target=0.99), 0.5)
        assert got == frozen, f"k={k}: got {got}, frozen oracle {frozen}"
        assert abs(got - NOMINAL_MIN_N[k]) <= 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    _report("criterion-2 minimum transmissions", f"156/295/567, {elapsed * 1e3:.0f} ms")


def test_criterion_3_monte_carlo_matches_closed_form():
    spec = SweepSpec(
        k=(64, 128, 256),
        n_rounds=tuple(range(60, 601, 10)),
        d_be=(60.0,),
        sigma=(0.0,),
        trials=10**4,
        base_seed=20260810,
        rule=RULE_ML,
        metric=METRIC_PER_BIT,
        geometry=GEOMETRY_EQUIDISTANT,
    )
    rows = sweep(spec)
    assert len(rows) == 3 * 55
    within = 0
    for row in rows:
        half = (row.ci_hi - row.ci_lo) / 2
        if abs(row.p_hat - row.p_analytic) <= 3 * half:
            within += 1
    fraction = within / len(rows)
    assert fraction >= 0.99, f"only {within}/{len(rows)} points within 3 half-widths"
    _report(
        "criterion-3 closed form vs Monte Carlo",
        f"{within}/{len(rows)} grid points within 3 Wilson half-widths",
    )


def test_criterion_4_adversary_closed_form():
    cfg = ScenarioConfig()
    worst = 0.0
    for d_be in (2.0, 20.0, 35.0):
        for sigma in (2.0, 8.0, 14.0):
            dep = build_deployment(d_be)
            delta = delta_mean_pathloss(*dep, cfg.gamma)
            expected = pg_closed_form(delta, sigma)
            coins, decisions, _ = session_streams(int(1000 * d_be + 10 * sigma))
            empirical = estimate_rule_correctness(
                coins, decisions, 10**6, *dep, cfg.replace(sigma=sigma), rule=RULE_ML
            )
            err = abs(empirical - expected)
            worst = max(worst, err)
            assert err <= 0.005, f"d_be={d_be}, sigma={sigma}: |{empirical} - {expected}| > 0.005"
    _report("criterion-4 adversary closed form", f"worst |empirical-analytic| = {worst:.5f}")


def test_criterion_5_no_fading_secret_rates():
    n = 10**5
    cfg = ScenarioConfig(sigma=0.0)

    dep = build_deployment(60.0, GEOMETRY_EQUIDISTANT)
    session = simulate_session_counts(424242, n, *dep, cfg, rule=RULE_ML)
    rate_equal = (session.correct.size - int(session.correct.sum())) / n
    assert rate_equal == pytest.approx(0.5, abs=0.005)

    dep = build_deployment(20.0)
    session = simulate_session_counts(424242, n, *dep, cfg, rule=RULE_ML)
    rate_unequal = (session.correct.size - int(session.correct.sum())) / n
    assert rate_unequal == 0.0
    _report(
        "criterion-5 no-fading secret rates",
        f"equidistant {rate_equal:.4f}, unequal {rate_unequal:.1f}",
    )


def _analytic_frontier(k: int, sigma: float, target: float = 0.99):
    spec = SweepSpec(
        k=(k,),
        n_rounds=tuple(range(100, 4001, 100)),
        d_be=(2.0, 20.0, 35.0, 200.0, 2000.0, 20000.0),
        sigma=(sigma,),
        trials=1,
        base_seed=1,
    )
    rows = frontier(sweep(spec), target=target, column="p_analytic")
    return {r.d_be: (math.inf if r.min_n is None else r.min_n) for r in rows}


def test_criterion_6_frontier_trends():
    ks = (64, 128, 256)
    sigmas = (2.0, 8.0, 14.0)
    fronts = {(k, s): _analytic_frontier(k, s) for k in ks for s in sigmas}

    distances = sorted(next(iter(fronts.values())))
    for (k, s), front in fronts.items():
        mins = [front[d] for d in distances]
        assert all(b <= a for a, b in zip(mins, mins[1:])), f"not non-increasing in d_be at k={k}, sigma={s}"

    for k in ks:
        for d in distances:
            by_sigma = [fronts[(k, s)][d] for s in sigmas]
            assert all(b <= a for a, b in zip(by_sigma, by_sigma[1:])), \
                f"not non-increasing in sigma at k={k}, d_be={d}"

    for s in sigmas:
        for d in distances:
            by_k = [fronts[(k, s)][d] for k in ks]
            assert all(b >= a for a, b in zip(by_k, by_k[1:])), \
                f"not non-decreasing in k at sigma={s}, d_be={d}"

    # the substitution of trend checks for exact published-value matching is
    # documented in the repository
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert "frontier trends" in text and "under-specified" in text
    _report("criterion-6 frontier trends", f"{len(fronts)} analytic frontiers monotone")


def test_criterion_7_power_and_reference_invariance():
    base = ScenarioConfig(sigma=8.0, n_rounds=1500)
    shifted = base.replace(pt=base.pt + 23.5, pl0=base.pl0 - 11.75)
    dep = build_deployment(20.0)

    for seed in (3, 17, 2029):
        coins_a, decisions_a, trace_a = session_streams(seed)
        *bits_a, key_a = run_session(base, coins_a)
        _, calls_a = simulate_eavesdropper(*bits_a, *dep, base, decisions_a, trace_a, rule=RULE_ML)
        coins_b, decisions_b, trace_b = session_streams(seed)
        *bits_b, key_b = run_session(shifted, coins_b)
        _, calls_b = simulate_eavesdropper(*bits_b, *dep, shifted, decisions_b, trace_b, rule=RULE_ML)
        assert (bits_a, key_a) == (bits_b, key_b)
        assert calls_a == calls_b  # every adversary decision unchanged, bit for bit
        assert coins_a.random_raw() == coins_b.random_raw()
        assert decisions_a.random_raw() == decisions_b.random_raw()
        assert trace_a.standard_normal() == trace_b.standard_normal()

    def small_spec(cfg):
        return SweepSpec(
            k=(4,), n_rounds=(40, 80, 160), d_be=(20.0, 60.0), sigma=(8.0,),
            trials=200, base_seed=77, scenario=cfg,
        )

    rows_a = sweep(small_spec(base))
    rows_b = sweep(small_spec(shifted))
    assert _csv_text(rows_a) == _csv_text(rows_b)
    assert frontier(rows_a, target=0.5) == frontier(rows_b, target=0.5)
    _report("criterion-7 invariance", "decisions, counts, sweep CSV and frontier unchanged")


def test_criterion_8_sweep_determinism():
    spec = SweepSpec(
        k=(4, 8), n_rounds=(30, 60), d_be=(20.0,), sigma=(8.0,),
        trials=150, base_seed=99,
    )
    text_one = _csv_text(sweep(spec))
    text_two = _csv_text(sweep(spec))
    assert text_one == text_two
    reseeded = SweepSpec(
        k=(4, 8), n_rounds=(30, 60), d_be=(20.0,), sigma=(8.0,),
        trials=150, base_seed=100,
    )
    assert _csv_text(sweep(reseeded)) != text_one
    _report("criterion-8 determinism", "byte-identical CSVs across reruns")


# Criterion 9: Monte Carlo against the closed form wherever the rules read
# their decision draws. Both rules x both metrics x sigma 2 and 8 x both
# geometries (canonical with Eve 100 and 400 m behind Bob, equidistant at
# 60 m), k 1, 8 and 32, and each slice's n at which the closed form reaches
# 0.2, 0.5 and 0.8 (min_transmissions). Every row of the 24 one-slice sweeps
# is tested: its success count must lie inside the central binomial interval
# of its closed-form probability at level AGREEMENT_FAMILY_WISE / rows. By
# Bonferroni, a correct engine fails this gate at a random seed with
# probability at most AGREEMENT_FAMILY_WISE = 10^-3. Seed and trial count
# are frozen: a failure is reported, never re-seeded or resized away.
AGREEMENT_FAMILY_WISE = 1e-3
AGREEMENT_SEED = 20261020
AGREEMENT_TRIALS = 10_000
AGREEMENT_SLICES = (
    (GEOMETRY_CANONICAL, 100.0), (GEOMETRY_CANONICAL, 400.0), (GEOMETRY_EQUIDISTANT, 60.0),
)
AGREEMENT_SIGMA = (2.0, 8.0)
AGREEMENT_K = (1, 8, 32)
AGREEMENT_TARGETS = (0.2, 0.5, 0.8)


def test_criterion_9_monte_carlo_agrees_over_the_domain():
    rows = []
    cases = itertools.product(RULES, METRICS, AGREEMENT_SLICES, AGREEMENT_SIGMA)
    for index, (rule, metric, (geometry, d_be), sigma) in enumerate(cases):
        delta = delta_mean_pathloss(*build_deployment(d_be, geometry), ScenarioConfig().gamma)
        p_g = pg_closed_form(delta, sigma) if rule == RULE_ML else 0.5
        # per slot: a generated bit (whole key), or a secret one (per bit)
        p_slot = 1.0 - COLLISION_PROB if metric == METRIC_WHOLE_KEY else secret_bit_prob(COLLISION_PROB, p_g)
        n_rounds = sorted({
            min_transmissions(KeyRequest(k, target), p_slot)
            for k in AGREEMENT_K for target in AGREEMENT_TARGETS
        })
        rows += sweep(SweepSpec(
            k=AGREEMENT_K, n_rounds=n_rounds, d_be=(d_be,), sigma=(sigma,),
            trials=AGREEMENT_TRIALS, base_seed=AGREEMENT_SEED + index, rule=rule, metric=metric,
            geometry=geometry,
        ))
    alpha = AGREEMENT_FAMILY_WISE / len(rows)
    outside = []
    for row in rows:
        successes = round(row.p_hat * row.trials)
        below = bdtr(successes, row.trials, row.p_analytic)  # P(X <= successes)
        above = bdtrc(successes - 1, row.trials, row.p_analytic)  # P(X >= successes)
        if min(below, above) <= alpha / 2:
            outside.append(row)
    assert not outside, f"{len(outside)} of {len(rows)} rows outside their interval: {outside[:3]}"
    _report(
        "criterion-9 agreement over the domain",
        f"{len(rows)} rows, each within its binomial interval at {alpha:.1e}",
    )


# The abstract's "128 bits with less than 564 transmissions", read as a
# hypothesis: p_b = 1/4, i.e. collisions at 1/2 and an adversary at chance
# (p_g = 1/2) wherever it stands. See README "Fidelity notes".
@pytest.mark.parametrize("target, expected", [(0.9, 563), (0.99, 608)])
def test_abstract_reading_closed_form(target, expected):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["analyze", "--k", "128", "--pb", "0.25", "--target", str(target)])
    assert code == EXIT_OK
    assert f"minimum transmissions for k=128 at target {target}: {expected}\n" in buf.getvalue()
    assert key_prob(128, expected - 1, 0.25) < target <= key_prob(128, expected, 0.25)
    if target == 0.9:
        assert key_prob(128, 563, 0.25) == pytest.approx(0.90241, abs=5e-6)
    _report("abstract reading, closed form", f"k=128, p_b=1/4, target {target}: {expected}")


def test_abstract_reading_monte_carlo_is_flat_in_distance():
    # the random-guess adversary at n = 563: every distance within 3 Wilson
    # half-widths of the closed form, so the result does not depend on where Eve is
    spec = SweepSpec(
        k=(128,), n_rounds=(563,), d_be=(2.0, 20.0, 100.0), sigma=(8.0,),
        trials=2000, base_seed=564, rule=RULE_RANDOM, metric=METRIC_PER_BIT,
    )
    rows = sweep(spec)
    assert len(rows) == 3
    for row in rows:
        assert row.p_analytic == pytest.approx(0.90241, abs=5e-6)
        half = (row.ci_hi - row.ci_lo) / 2
        assert abs(row.p_hat - row.p_analytic) <= 3 * half, f"d_be={row.d_be}: p_hat {row.p_hat}"
    _report("abstract reading, Monte Carlo", ", ".join(f"d_be={r.d_be}: {r.p_hat}" for r in rows))
