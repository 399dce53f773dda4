"""Monte Carlo harness: seeded session sweeps over parameter grids.

Each grid point reports the fraction of protocol sessions against the
eavesdropper that met the key-size target, with a Wilson 95% interval and,
where available, the closed-form probability. Each (d_be, sigma) slice
simulates its sessions once, at the longest n, from one stream seeded by
(base_seed, slice index); every (k, n) row of the slice is read off
prefixes of those same sessions (common random numbers). A trial succeeds
at n iff the slot that completes its key is below n, so each block of
trials is counted once per k, from one completing slot per trial, whatever
the length of the n axis. Results are a pure function of the spec.
"""

from __future__ import annotations

import copy
import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence, TextIO, Union

import numpy as np

from .adversary import RULE_ML, RULE_RANDOM, RULES, pg_closed_form, rss_samples
from .analysis import COLLISION_PROB, key_probs, secret_bit_prob
from .channel import delta_mean_pathloss
from .protocol import draw_coins
from .scenario import (
    GEOMETRIES,
    GEOMETRY_CANONICAL,
    GEOMETRY_EQUIDISTANT,
    ScenarioConfig,
    build_deployment,
    check_adversary_distance,
    text_stream,
    validate_config,
)

METRIC_PER_BIT = "per-bit-secret"
METRIC_WHOLE_KEY = "whole-key"
METRICS = (METRIC_PER_BIT, METRIC_WHOLE_KEY)

#: Most trial-slots simulated at once: trials run in blocks of BLOCK_SLOTS // n
#: sessions, so peak memory does not grow with the trial count, and one session
#: in blocks of BLOCK_SLOTS slots, so beyond a block it holds 2 bytes per slot.
BLOCK_SLOTS = 16_384

#: Default cap on the slots one sweep (slices x trials x longest n) or session may simulate.
SLOT_BUDGET = 50_000_000


class BudgetError(ValueError):
    """The slots a sweep would simulate exceed the configured budget."""


@dataclass(frozen=True)
class SweepSpec:
    """Axes and execution parameters of one sweep."""

    k: tuple[int, ...]
    n_rounds: tuple[int, ...]
    d_be: tuple[float, ...]
    sigma: tuple[float, ...]
    trials: int = 2000
    base_seed: int = 0
    rule: str = RULE_ML
    metric: str = METRIC_PER_BIT
    geometry: str = GEOMETRY_CANONICAL
    budget: int = SLOT_BUDGET
    scenario: ScenarioConfig = ScenarioConfig()

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))
        object.__setattr__(self, "n_rounds", tuple(int(v) for v in self.n_rounds))
        object.__setattr__(self, "d_be", tuple(float(v) for v in self.d_be))
        object.__setattr__(self, "sigma", tuple(float(v) for v in self.sigma))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.rule not in RULES:
            raise ValueError(f"unknown adversary rule {self.rule!r}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if any(n < 1 for n in self.n_rounds):
            raise ValueError(f"transmission counts must be >= 1, got {self.n_rounds}")
        if any(k < 0 for k in self.k):
            raise ValueError(f"key sizes must be >= 0, got {self.k}")
        for sigma in self.sigma:
            validate_config(self.scenario.replace(sigma=sigma))
        for d_be in self.d_be:
            build_deployment(d_be, self.geometry)  # names a d_be the geometry cannot place
            check_adversary_distance(d_be, self.scenario.d0)
        if self.slots > self.budget:
            raise BudgetError(
                f"{self.slots} simulated slots (slices x trials x longest n) "
                f"exceed budget {self.budget}"
            )

    @property
    def grid_size(self) -> int:
        return len(self.k) * len(self.n_rounds) * len(self.d_be) * len(self.sigma)

    @property
    def slots(self) -> int:
        """Slots simulated: each (d_be, sigma) slice runs `trials` sessions of the longest n."""
        if self.grid_size == 0:
            return 0
        return len(self.d_be) * len(self.sigma) * self.trials * max(self.n_rounds)


class ResultRow(NamedTuple):
    """One sweep.csv line; its field names, in order, are RESULT_COLUMNS."""

    k: int
    n: int
    d_be: float
    sigma: float
    rule: str
    metric: str
    trials: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    p_analytic: float | None


RESULT_COLUMNS = ResultRow._fields


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval; robust near 0 and 1, always contains p_hat."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # pin the degenerate endpoints so the interval always contains p_hat
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


class Session(NamedTuple):
    """A session or a block of its slots: bits per slot, Eve's samples and verdicts per key bit."""

    alice: np.ndarray  # (n,) Alice's bit per slot
    bob: np.ndarray  # (n,) Bob's bit per slot
    samples: np.ndarray  # (generated, 2) Alice's and Bob's RSS at Eve, dBm
    correct: np.ndarray  # (generated,) Eve named the bit
    abstain: np.ndarray  # (generated,) Eve abstained: an ML tie


def draw_slot_bits(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """Alice's and Bob's bit for n slots, in blocks of BLOCK_SLOTS slots: (m, 2) uint8 views.

    The coins of one draw_coins call of 2n interleaved Alice/Bob bits, cut
    into blocks, so the bits do not depend on the block size.
    """
    bits = draw_coins(rng, 2 * n).reshape(-1, 2)
    return [bits[i:i + BLOCK_SLOTS] for i in range(0, n, BLOCK_SLOTS)]


def session_blocks(
    rng: np.random.Generator, blocks: Sequence[np.ndarray], d_ae: float, d_be: float,
    cfg: ScenarioConfig, rule: str = RULE_ML,
) -> Iterator[Session]:
    """The eavesdropper on the slot bits of draw_slot_bits, one Session per block.

    Continues the stream that drew the bits: the decision draws of every
    generated bit in slot order (see _decision_draws), then the trace-only
    draws that place the written samples: u per bit for the ML rule, u and
    v per bit for the random rule. The trace draws come from a copy of rng
    that has skipped every decision draw; rng itself ends after the
    decision draws, where a one-trial simulate_session_block ends.
    """
    delta = delta_mean_pathloss(d_ae, d_be, cfg.gamma)
    trace_rng = type(rng)(copy.copy(rng.bit_generator))  # independent; cheaper than copy.deepcopy(rng)
    for block in blocks:
        _decision_draws(trace_rng, np.count_nonzero(block[:, 0] != block[:, 1]), rule)
    for block in blocks:
        alice, bob = block[:, 0], block[:, 1]
        values = alice[alice != bob]
        draws = _decision_draws(rng, values.size, rule)
        correct, abstain = _classify(draws, values, delta, cfg.sigma, rule)
        if rule == RULE_RANDOM:
            u, v = trace_rng.standard_normal((values.size, 2)).T
        else:
            u, v = trace_rng.standard_normal(values.size), draws
        yield Session(alice, bob, rss_samples(u, v, d_ae, d_be, cfg), correct, abstain)


def simulate_session_counts(
    rng: np.random.Generator,
    n: int,
    d_ae: float,
    d_be: float,
    cfg: ScenarioConfig,
    rule: str = RULE_ML,
) -> Session:
    """One full session plus eavesdropper, drawn as the per-round engine draws: session_blocks joined."""
    blocks = session_blocks(rng, draw_slot_bits(rng, n), d_ae, d_be, cfg, rule)
    return Session(*map(np.concatenate, zip(*blocks)))


def simulate_session_block(
    rng: np.random.Generator, trials: int, n: int, delta: float, sigma: float, rule: str = RULE_ML
) -> tuple[np.ndarray, np.ndarray]:
    """`trials` sessions of n slots plus eavesdropper, batched, at the adversary's
    mean path-loss gap delta (channel.delta_mean_pathloss) and shadowing sigma.

    Returns (generated, secret): the (trials, n) slot mask of generated key
    bits, and per generated bit in trial-major order whether the adversary
    missed it. Draws every trial's interleaved Alice/Bob coins in one
    draw_coins call, then one decision draw per generated bit in that
    order, so one trial replays the bits and verdicts of
    simulate_session_counts and ends its stream where that ends.
    """
    bits = draw_coins(rng, 2 * trials * n).reshape(trials, 2 * n)
    # a slot's coin pair (a, b) reads as a + 256 b in either byte order:
    # 1 or 256 iff the coins differ
    pairs = bits.view(np.uint16)
    generated = (pairs == 1) | (pairs == 256)
    values = bits[:, 0::2][generated] if rule == RULE_RANDOM else None
    draws = _decision_draws(rng, np.count_nonzero(generated), rule)
    return generated, ~_classify(draws, values, delta, sigma, rule)[0]


def slice_successes(
    rng: np.random.Generator, trials: int, ks: Sequence[int], n_rounds: Sequence[int],
    delta: float, sigma: float, rule: str = RULE_ML, metric: str = METRIC_PER_BIT,
) -> np.ndarray:
    """Successful trials per (k, n), shape (len(ks), len(n_rounds)).

    Every trial is one session of max(n_rounds) slots; row n reads its
    first n slots, so the counts are non-decreasing in n (and, for the
    per-bit metric, non-increasing in k). A trial succeeds at n iff the slot
    that completes its key is below n: for the per-bit metric the slot of
    its k-th secret bit; for the whole-key metric the slot of its k-th
    generated bit, if its first secret bit is among its first k. So k = 0
    succeeds on every trial per bit and on none for the whole key. Trials
    run in blocks of at most BLOCK_SLOTS trial-slots.
    """
    n_max = max(n_rounds)
    n_axis = np.asarray(n_rounds)
    whole_key = metric == METRIC_WHOLE_KEY
    successes = np.zeros((len(ks), n_axis.size), dtype=np.int64)
    # k = 0 is settled without bits, and a trial has at most n_max bits, so no
    # larger k is ever reached: only 0 < k <= n_max are counted per block
    counted = []
    for i, k in enumerate(ks):
        if 0 < k <= n_max:
            counted.append((i, k))
        elif k == 0 and not whole_key:
            successes[i] = trials
    block = max(1, BLOCK_SLOTS // n_max)
    for start in range(0, trials, block):
        size = min(block, trials - start)
        generated, secret = simulate_session_block(rng, size, n_max, delta, sigma, rule)
        # trial * n_max + slot per generated bit, in the order of secret: the
        # stream the metric counts, which per bit keeps the secret bits only
        slots = np.flatnonzero(generated)
        if not whole_key:
            slots = slots[secret]
        # where each trial's bits start in the stream, and where the last trial's end
        bounds = np.searchsorted(slots, np.arange(0, (size + 1) * n_max, n_max))
        firsts, ends = bounds[:-1], bounds[1:]
        if whole_key:
            # each trial's first secret bit, by rank among its own bits; past them if none
            secret_at = np.append(np.flatnonzero(secret), slots.size)
            rank = secret_at[np.searchsorted(secret_at, firsts)] - firsts
        for i, k in counted:
            at = firsts + (k - 1)
            done = at < ends
            if whole_key:
                done &= rank < k
            completing = np.sort(slots[at[done]] % n_max)
            successes[i] += np.searchsorted(completing, n_axis)
    return successes


def _decision_draws(rng: np.random.Generator, m: int, rule: str) -> np.ndarray:
    """The draws that decide m bit rounds: one guess each for the random rule, else v.

    v is the normalised difference of the round's two shadowing draws
    (see adversary.rss_samples), the only part of them the ML rule reads.
    """
    if rule == RULE_RANDOM:
        return rng.integers(0, 2, size=m)
    return rng.standard_normal(m)


def _classify(
    draws: np.ndarray, values: np.ndarray | None, delta: float, sigma: float, rule: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per bit round, (correct, abstain): did the rule name the value, did it abstain.

    The ML guess is correct iff (A - B) * delta < 0 for the Alice and Bob
    samples A, B, whatever the bit value: value 0 puts A on f0 and is named
    on a negative score, value 1 puts B on f0 and is named on a positive
    one. A - B = -delta - sigma * sqrt(2) * v is taken from the decision
    draw v, which is authoritative where the written samples nearly tie. An
    exact tie (score 0, always so at delta = 0) abstains, never correct.
    The random rule's draws are its guesses; it never abstains, and only it
    reads the bit values.
    """
    if rule == RULE_RANDOM:
        return draws == values, np.zeros(draws.size, dtype=bool)
    score = draws * (-sigma * math.sqrt(2.0))
    score -= delta
    score *= delta
    return score < 0.0, score == 0.0


def _slice_pg(delta: float, sigma: float, rule: str) -> float:
    """Per-bit-round correct-guess probability of the simulated rule."""
    if rule == RULE_RANDOM:
        return 0.5
    return pg_closed_form(delta, sigma)


def _analytic_columns(
    ks: Sequence[int], n_rounds: Sequence[int], pg: float, metric: str
) -> list[list[float]]:
    """Closed-form success probability for every k, one column per n, each from one binomial tail window.

    The per-slot success probability, and for the whole-key metric each k's
    chance that the adversary misses one of the first k bits, are the
    slice's: computed once, not once per n.
    """
    if metric == METRIC_WHOLE_KEY:
        missed = [1.0 - pg**k for k in ks]
        # at least k generated bits, and a missed one among the first k
        return [
            [tail * miss for tail, miss in zip(key_probs(ks, n, 1.0 - COLLISION_PROB), missed)]
            for n in n_rounds
        ]
    p_b = float(secret_bit_prob(COLLISION_PROB, pg))
    return [key_probs(ks, n, p_b) for n in n_rounds]


def analytic_prob(
    k: int, n: int, d_be: float, sigma: float, rule: str, metric: str, geometry: str, gamma: float
) -> float:
    """Closed-form success probability at one grid point: a sweep's analytic column, one row."""
    delta = delta_mean_pathloss(*build_deployment(d_be, geometry), gamma)
    ((prob,),) = _analytic_columns((k,), (n,), _slice_pg(delta, sigma, rule), metric)
    return prob


def run_grid_point(
    k: int, n: int, d_be: float, sigma: float, trials: int, base_seed: int, cfg: ScenarioConfig,
    rule: str = RULE_ML, metric: str = METRIC_PER_BIT, geometry: str = GEOMETRY_CANONICAL,
) -> tuple[float, tuple[float, float]]:
    """Empirical success fraction and Wilson interval at one grid point.

    A one-point sweep, seeded (base_seed, 0).
    """
    spec = SweepSpec(
        k=(k,), n_rounds=(n,), d_be=(d_be,), sigma=(sigma,),
        trials=trials, base_seed=base_seed, rule=rule, metric=metric, geometry=geometry,
        scenario=cfg,
    )
    (row,) = sweep(spec)
    return row.p_hat, (row.ci_lo, row.ci_hi)


def sweep(spec: SweepSpec) -> tuple[ResultRow, ...]:
    """One ResultRow per grid point, in the order of itertools.product(k, n_rounds, d_be, sigma)."""
    if spec.grid_size == 0:
        return ()
    slices = list(itertools.product(spec.d_be, spec.sigma))
    counts, analytic = [], []
    for index, (d_be, sigma) in enumerate(slices):
        delta = delta_mean_pathloss(*build_deployment(d_be, spec.geometry), spec.scenario.gamma)
        rng = np.random.default_rng(np.random.SeedSequence([spec.base_seed, index]))
        counts.append(slice_successes(
            rng, spec.trials, spec.k, spec.n_rounds, delta, sigma, spec.rule, spec.metric
        ).tolist())
        pg = _slice_pg(delta, sigma, spec.rule)
        analytic.append(_analytic_columns(spec.k, spec.n_rounds, pg, spec.metric))
    rule, metric, trials = spec.rule, spec.metric, spec.trials
    # (p_hat, ci_lo, ci_hi) once per distinct success count: a slice has at most trials + 1
    distinct = {c for by_k in counts for by_n in by_k for c in by_n}
    estimates = {c: (c / trials, *wilson_interval(c, trials)) for c in distinct}
    rows = []
    for (i, k), (j, n), (s, (d_be, sigma)) in itertools.product(
        enumerate(spec.k), enumerate(spec.n_rounds), enumerate(slices)
    ):
        rows.append(ResultRow(
            k, n, d_be, sigma, rule, metric, trials, *estimates[counts[s][i][j]], analytic[s][j][i]
        ))
    return tuple(rows)


@dataclass(frozen=True)
class FrontierRow:
    d_be: float
    min_n: int | None  # None marks an infeasible distance


def frontier(
    rows: Sequence[ResultRow], target: float, column: str = "p_hat"
) -> list[FrontierRow]:
    """Per adversary distance, the smallest n whose estimate meets the target.

    Requires a single (k, sigma, rule, metric) slice. Raw minima are cleaned
    isotonically (running minimum over increasing distance) to strip Monte
    Carlo noise; the true frontier is non-increasing in distance.
    """
    if column not in ("p_hat", "p_analytic"):
        raise ValueError(f"unknown frontier column {column!r}")
    if not rows:
        return []
    slices = {(r.k, r.sigma, r.rule, r.metric) for r in rows}
    if len(slices) != 1:
        raise ValueError(f"frontier needs a single (k, sigma, rule, metric) slice, got {len(slices)}")
    by_dist: dict[float, list[ResultRow]] = {}
    for row in rows:
        by_dist.setdefault(row.d_be, []).append(row)
    result = []
    running: int | None = None
    for d_be in sorted(by_dist):
        feasible = [
            r.n for r in by_dist[d_be]
            if getattr(r, column) is not None and getattr(r, column) >= target
        ]
        raw = min(feasible) if feasible else None
        if raw is not None and (running is None or raw < running):
            running = raw
        result.append(FrontierRow(d_be=d_be, min_n=running))
    return result


# One RESULT_COLUMNS line per row, indexed by whether p_analytic is absent:
# floats as %r (float.__repr__), an absent p_analytic as an empty field (%.0s),
# and p_hat, ci_lo, ci_hi as one %s: their text, "%r,%r,%r", made beforehand.
_RESULT_LINES = (
    "%d,%d,%r,%r,%s,%s,%d,%s,%r\n",
    "%d,%d,%r,%r,%s,%s,%d,%s,%.0s\n",
)


def write_result_csv(rows: Sequence[ResultRow], dest: Union[str, TextIO]) -> None:
    """The csv module's bytes, written directly: no field of a sweep row needs
    quoting (numbers, and the rule and metric names).

    A (p_hat, ci_lo, ci_hi) triple depends only on the success count, so its
    text is made once per distinct triple. A triple holding a zero is keyed
    with its signs too: 0.0 and -0.0 are equal keys but different text.
    """
    texts: dict[tuple, str] = {}
    lines = []
    for k, n, d_be, sigma, rule, metric, trials, p_hat, ci_lo, ci_hi, p_analytic in rows:
        key = (p_hat, ci_lo, ci_hi)
        if 0.0 in key:
            key += (math.copysign(1.0, p_hat), math.copysign(1.0, ci_lo), math.copysign(1.0, ci_hi))
        text = texts.get(key)
        if text is None:
            text = texts[key] = "%r,%r,%r" % (p_hat, ci_lo, ci_hi)
        lines.append(_RESULT_LINES[p_analytic is None] % (
            k, n, d_be, sigma, rule, metric, trials, text, p_analytic
        ))
    with text_stream(dest, "w") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        fh.writelines(lines)


def read_result_csv(src: Union[str, TextIO]) -> tuple[ResultRow, ...]:
    with text_stream(src) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(RESULT_COLUMNS):
            raise ValueError(f"unexpected result CSV header: {header}")
        rows = []
        for rec in reader:
            if not rec:
                continue
            try:
                if len(rec) != len(RESULT_COLUMNS):
                    raise ValueError(f"{len(rec)} fields, expected {len(RESULT_COLUMNS)}")
                rows.append(ResultRow(
                    int(rec[0]), int(rec[1]), float(rec[2]), float(rec[3]), rec[4], rec[5],
                    int(rec[6]), float(rec[7]), float(rec[8]), float(rec[9]),
                    float(rec[10]) if rec[10] != "" else None,
                ))
            except ValueError as exc:
                raise ValueError(f"result CSV line {reader.line_num}: {exc}") from None
        return tuple(rows)


def write_frontier_csv(rows: Sequence[FrontierRow], dest: Union[str, TextIO]) -> None:
    """The csv module's bytes, written directly, as write_result_csv writes them."""
    with text_stream(dest, "w") as fh:
        fh.write("d_be,min_n,status\n")
        fh.writelines(
            f"{r.d_be!r},,infeasible\n" if r.min_n is None else f"{r.d_be!r},{r.min_n},ok\n"
            for r in rows
        )


def write_sweep_plot_script(csv_name: str, dest: Union[str, TextIO]) -> None:
    """gnuplot script: success probability vs number of transmissions."""
    text = (
        "set datafile separator ','\n"
        "set key autotitle columnhead outside\n"
        "set xlabel 'transmissions N'\n"
        "set ylabel 'P(key established)'\n"
        "set yrange [0:1.05]\n"
        "set grid\n"
        f"plot '{csv_name}' using 2:8 with points pt 7 title 'empirical', \\\n"
        f"     '{csv_name}' using 2:11 with lines title 'closed form'\n"
    )
    with text_stream(dest, "w") as fh:
        fh.write(text)


def write_frontier_plot_script(csv_name: str, dest: Union[str, TextIO]) -> None:
    """gnuplot script: minimum transmissions vs adversary distance."""
    text = (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'adversary distance d_be (m)'\n"
        "set ylabel 'minimum transmissions N'\n"
        "set grid\n"
        f"plot '{csv_name}' using 1:2 with linespoints pt 5 title 'frontier'\n"
    )
    with text_stream(dest, "w") as fh:
        fh.write(text)

