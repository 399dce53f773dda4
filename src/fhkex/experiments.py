"""Monte Carlo harness: seeded session sweeps over parameter grids. It draws
and counts; the eavesdropper's calls are the rule's adversary.Verdict.

Each grid point reports the fraction of protocol sessions against the
eavesdropper that met the key-size target, with a Wilson 95% interval and,
where available, the closed-form probability. Each (d_be, sigma) slice
simulates its sessions once, at the longest n, from a coin and a decision
stream (protocol.stream) keyed by its parameters, the entropy (base_seed,
float64 bits of d_be, float64 bits of sigma): a slice's rows do not depend
on the other distances or sigmas, or on their order, and a repeated
distance repeats its rows. Every (k, n) row of the slice is read off
prefixes of those same sessions (common random numbers), and counted from
the one slot per trial and k that completes its key, all k of a block in
one array pass (see slice_successes). A slice draws its coins block by
block, so it holds one block of BLOCK_SLOTS slots and its counts, one per
(distinct k, n value). The slices share no state and run one after
another, in grid order, on the calling thread; results are a pure function
of the spec. A slice's block loop is short numpy calls and Python glue
under the GIL, so two threads ran slower than one: 2.94 vs 2.44 ms for the
bench frontier spec (3 slices), 212 vs 173 ms for an 8-slice, 10^4-trial
sweep (2 vCPUs, Python 3.11.7, numpy 2.4.6). A slice draws only what its
counts read: a fixed ML verdict (Verdict.fixed) reads nothing from its
decision stream, and per bit a block that misses no bit is not indexed
(see slice_successes). A slice's closed-form column is walked for all n at
once: the binomial windows of every n in one numpy pass, in chunks of about
BLOCK_SLOTS cells, bit for bit analysis.key_probs (see _key_columns).
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO, Union

import numpy as np

from .adversary import RULE_ML, RULE_RANDOM, RULES, Verdict, normal_quantile, rss_samples
from .analysis import COLLISION_PROB, key_probs, secret_bit_prob, window_floor, window_tails
from .channel import delta_mean_pathloss
from .protocol import COINS, DECISIONS, TRACE, draw_coins, stream
from .scenario import (
    GEOMETRIES,
    GEOMETRY_CANONICAL,
    ScenarioConfig,
    build_deployment,
    check_adversary_distance,
    text_stream,
    validate_config,
)

METRIC_PER_BIT = "per-bit-secret"
METRIC_WHOLE_KEY = "whole-key"
METRICS = (METRIC_PER_BIT, METRIC_WHOLE_KEY)

#: Slots drawn and judged at once. A session, and a sweep batch of
#: BLOCK_SLOTS // n trials (at least one), draw and judge their coins in blocks
#: of BLOCK_SLOTS slots; a sweep holds one block, a session all of its blocks.
#: Also the most (trial, k) cells a sweep block counts at once, as it takes only
#: the k whose completing bit it holds: at most n distinct k for a batch of
#: several trials, and at most BLOCK_SLOTS for one trial's block of bits.
BLOCK_SLOTS = 16_384

#: Default cap on the slots one sweep (slices x trials x longest n) or session may simulate.
SLOT_BUDGET = 50_000_000

#: The most rows (grid points) one sweep may write, checked before any axis is copied.
ROW_LIMIT = 1_000_000

WILSON_Z = 1.959963984540054  #: the two-sided 95% standard normal quantile


class BudgetError(ValueError):
    """The slots a sweep would simulate exceed the configured budget, or its rows ROW_LIMIT."""


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
        self.check_rows(self.grid_size)
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

    @staticmethod
    def check_rows(rows: int) -> None:
        """Refuses a grid of more rows (k x n x d_be x sigma) than ROW_LIMIT; checked before any axis is copied."""
        if rows > ROW_LIMIT:
            raise BudgetError(f"{rows} grid points (k x n x d_be x sigma) exceed the row limit {ROW_LIMIT}")

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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval, 95% (WILSON_Z); robust near 0 and 1, always contains p_hat."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = WILSON_Z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
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


def draw_slot_bits(coins: np.random.PCG64, n: int) -> Iterator[np.ndarray]:
    """Alice's and Bob's bit for n slots, drawn block by block: (m, 2) uint8 arrays of BLOCK_SLOTS slots.

    The coins of one draw_coins call of 2n interleaved Alice/Bob bits: each
    block reads the whole words it needs and holds the rest of its last word
    for the next, so the bits do not depend on the block size.
    """
    held = np.zeros(0, dtype=np.uint8)
    for start in range(0, n, BLOCK_SLOTS):
        count = 2 * min(BLOCK_SLOTS, n - start)
        bits = draw_coins(coins, -(-(count - held.size) // 64) * 64)
        if held.size:
            bits = np.concatenate((held, bits))
        held = bits[count:]
        yield bits[:count].reshape(-1, 2)


def session_blocks(
    decisions: np.random.PCG64, trace: np.random.Generator, blocks: Iterable[np.ndarray],
    d_ae: float, d_be: float, cfg: ScenarioConfig, rule: str = RULE_ML,
) -> Iterator[Session]:
    """The eavesdropper on the slot bits of draw_slot_bits, one Session per block.

    Per generated bit in slot order, one decision word, a raw 64-bit word of
    decisions that the rule's adversary.Verdict reads, and the trace draws
    that place the written samples: u for the ML rule (v is normal_quantile
    of its word's uniform U), u and v for the random rule.
    """
    verdict = Verdict(delta_mean_pathloss(d_ae, d_be, cfg.gamma), cfg.sigma, rule)
    for block in blocks:
        generated = _generated(block)
        words = decisions.random_raw(np.count_nonzero(generated))
        if rule == RULE_RANDOM:
            missed, uniforms = verdict.missed(words, block[:, 0][generated]), None
            u, v = trace.standard_normal((words.size, 2)).T
        else:
            missed, uniforms = verdict.missed(words), (words >> 11) * 2.0**-53  # U, as Generator.random reads w
            u, v = trace.standard_normal(words.size), normal_quantile(uniforms)
        samples = rss_samples(u, v, d_ae, d_be, cfg)
        yield Session(block[:, 0], block[:, 1], samples, ~missed, verdict.ties(uniforms, missed))


def session_streams(seed: int) -> tuple[np.random.PCG64, np.random.PCG64, np.random.Generator]:
    """A session's coin and decision streams and its trace Generator, keyed by its seed alone."""
    entropy = (seed,)
    return stream(entropy, COINS), stream(entropy, DECISIONS), np.random.Generator(stream(entropy, TRACE))


def simulate_session_counts(
    seed: int,
    n: int,
    d_ae: float,
    d_be: float,
    cfg: ScenarioConfig,
    rule: str = RULE_ML,
) -> Session:
    """One full session plus eavesdropper from the streams of seed, as `fhkex session` draws it: session_blocks joined."""
    coins, decisions, trace = session_streams(seed)
    blocks = session_blocks(decisions, trace, draw_slot_bits(coins, n), d_ae, d_be, cfg, rule)
    return Session(*map(np.concatenate, zip(*blocks)))


def _generated(bits: np.ndarray) -> np.ndarray:
    """The (m,) mask of the slots that generate a key bit, for (m, 2) uint8
    coin pairs laid out as draw_slot_bits gives them."""
    # a slot's coin pair (a, b) reads as a + 256 b in either byte order: 0, 1,
    # 256 or 257, and 1 or 256 iff the coins differ, the only values that one
    # less (wrapping 0 to 65535) puts below 256
    return (bits.view(np.uint16).ravel() - np.uint16(1)) < 256


def slice_successes(
    coins: np.random.PCG64, decisions: np.random.PCG64, trials: int, ks: Sequence[int],
    n_rounds: Sequence[int], verdict: Verdict, metric: str = METRIC_PER_BIT,
) -> np.ndarray:
    """Successful trials per (k, n), shape (len(ks), len(n_rounds)), under
    verdict, the rule's at the slice's delta and sigma.

    Every trial is one session of max(n_rounds) slots; row n reads its
    first n slots, so the counts are non-decreasing in n (and, for the
    per-bit metric, non-increasing in k). A trial succeeds at n iff the slot
    that completes its key is below n: for the per-bit metric the slot of
    its k-th secret bit; for the whole-key metric the slot of its k-th
    generated bit, if its first secret bit is among its first k. So k = 0
    succeeds on every trial per bit and on none for the whole key. Trials
    run in batches of BLOCK_SLOTS // n_max, at least one, whose coins come
    from one draw_slot_bits call on the coin stream, drawn and judged block
    by block as a session's are, so a slice holds one block. Each block
    bins, in one array pass, the completing slots it holds, as offsets
    within their trials, into one (distinct k) x (n values) histogram,
    summed along n at the end; its (trial, k) arrays stay within
    BLOCK_SLOTS cells.

    Only what a count reads is drawn or indexed: an ML slice whose verdict
    is fixed (delta = 0 or sigma = 0, Verdict.fixed) reads nothing from its
    decision stream, and for the per-bit metric a block that misses no bit
    completes no key, so its slots are not indexed. Near a node (d_be 2 m at
    sigma 8, p_g = 0.999994) most blocks miss no bit.
    """
    n_max = max(n_rounds)
    whole_key = metric == METRIC_WHOLE_KEY
    # k = 0 needs no bit and no trial has more than n_max, so only the distinct
    # 0 < k <= n_max are counted, also as kth, the index k - 1 of their bit
    keys = sorted({k for k in ks if 0 < k <= n_max})
    kth = np.array(keys, dtype=np.int64) - 1
    ns = np.array(sorted(n_rounds))
    batch = max(1, BLOCK_SLOTS // n_max)
    # where each trial of a full batch starts among its trial * n_max + slot
    # indices, one per row, and where the last one ends. The i-th key's slot at
    # offset o in its trial is coded i n_max + o, its index plus shift, which
    # counts at each n > o as it falls below the sorted edges i n_max + n
    trial_starts = np.arange(0, (batch + 1) * n_max, n_max)[:, None]
    shift = np.arange(0, kth.size * n_max, n_max) - trial_starts[:batch]
    edges = np.add.outer(shift[0], ns).ravel()
    hist = np.zeros(edges.size, dtype=np.int64)
    for start in range(0, trials, batch):
        size = min(batch, trials - start)
        # counted bits and slots before each block, each trial's first secret bit
        # by rank (n_max or more until found; one trial spans blocks), the first key due
        base, offset, rank, lo = 0, 0, n_max, 0
        for bits in draw_slot_bits(coins, size * n_max):
            generated = _generated(bits)
            count = np.count_nonzero(generated)
            if verdict.fixed is not None:  # no decision word decides: none is drawn
                secret = np.full(count, verdict.fixed)
            else:  # one decision word per generated bit, as a session of the batch's slots draws
                values = bits[:, 0][generated] if verdict.rule == RULE_RANDOM else None
                secret = verdict.missed(decisions.random_raw(count), values)
            if not (whole_key or secret.any()):
                offset += len(bits)  # no key completes in a block that misses no bit
                continue
            # trial * n_max + slot per generated bit, in the order of secret: the
            # stream the metric counts, which per bit keeps the secret bits only
            slots = generated.nonzero()[0]
            if not whole_key:
                slots = slots.compress(secret)
            if offset:
                slots += offset
            bounds = slots.searchsorted(trial_starts[:size + 1])
            firsts, ends = bounds[:-1], bounds[1:]
            if whole_key:
                secret_at = np.append(secret.nonzero()[0], slots.size + n_max)
                rank = np.minimum(rank, secret_at[secret_at.searchsorted(firsts)] - firsts + base)
            # only the keys whose completing bit this block holds (see BLOCK_SLOTS)
            hi = bisect.bisect_right(keys, base + slots.size)
            if lo < hi:
                at = firsts + kth[lo:hi]
                if base:
                    at -= base
                done = at < ends
                if whole_key:
                    done &= rank <= kth[lo:hi]
                codes = (slots.take(at, mode="clip") + shift[:size, lo:hi])[done]
                hist += np.bincount(edges.searchsorted(codes, side="right"), minlength=hist.size)
            base, offset, lo = base + slots.size, offset + len(bits), hi
    counts = hist.reshape(kth.size, ns.size)
    np.add.accumulate(counts, axis=1, out=counts)  # summed along n, in place
    cols = ns.searchsorted(n_rounds)
    successes = np.zeros((len(ks), len(n_rounds)), dtype=np.int64)
    for i, k in enumerate(ks):
        if 0 < k <= n_max:
            successes[i] = counts[bisect.bisect_left(keys, k), cols]
        elif k == 0 and not whole_key:
            successes[i] = trials
    return successes


def _walks(ns: np.ndarray, starts: np.ndarray, floors: np.ndarray, ratio: float, width: int) -> Iterator[list[float]]:
    """analysis._walk from every (n, start, floor) at once, each row's terms
    with the mode term 1.0 first, yielded row by row: a (rows x width) array
    of the factors (n - i) / (i + 1) * ratio, multiplied along each row in
    order, so every product is the scalar walk's, cut at each row's first
    term below its floor. The factor at i = n is 0, so a row of
    n - start + 2 cells ends; a row not ended within width is walked again
    twice as wide.
    """
    width = min(width, int((ns - starts).max()) + 2)
    # integers below 2^53 as floats, so the steps are exact and no step casts
    ns, starts = ns.astype(float), starts.astype(float)
    i = np.empty((ns.size, width - 1))  # filled in place: a broadcast sum also holds numpy's buffers
    i[:] = np.arange(width - 1.0)
    i += starts[:, None]
    t = np.empty((ns.size, width))
    t[:, 0] = 1.0
    factors = np.subtract(ns[:, None], i, out=t[:, 1:])
    factors /= np.add(i, 1.0, out=i)
    factors *= ratio
    np.multiply.accumulate(t, axis=1, out=t)
    cuts = (t >= floors[:, None]).argmin(axis=1)  # the first term not above the floor; 0: none yet
    short = cuts == 0
    rest = _walks(ns[short], starts[short], floors[short], ratio, 2 * width) if short.any() else None
    for row, cut in zip(t, cuts.tolist()):
        yield row[:cut].tolist() if cut else next(rest)


def _key_columns(ks: Sequence[int], n_rounds: Sequence[int], p: float) -> list[list[float]]:
    """analysis.key_probs(ks, n, p) for every n of n_rounds, bit for bit, from
    the windows of every n walked at once (_walks).

    The n values are walked in increasing order, in chunks of about
    BLOCK_SLOTS cells: a row is sqrt(2 C n p q) + C + 2 cells wide,
    C = -ln(floor), which held every window of n up to 10^9 (a row walked
    too short is walked again). Each chunk's windows are read by
    analysis.window_tails, then dropped.
    """
    if p == 0.0 or p == 1.0:
        return [key_probs(ks, n, p) for n in n_rounds]
    q = 1.0 - p
    order = sorted(range(len(n_rounds)), key=n_rounds.__getitem__)
    ns = np.array(n_rounds, dtype=np.int64)[order]
    modes = np.minimum(ns, ((ns + 1) * p).astype(np.int64))  # key_probs' int((n + 1) * p)
    floors = np.array([window_floor(n) for n in ns.tolist()])
    mirror = p == q and set((ns - 2 * modes).tolist()) <= {0, -1}  # key_probs' mirror, for every n
    cs = -np.log(floors)
    widths = (np.sqrt(2.0 * cs * ns * (p * q)) + cs).astype(np.int64) + 2
    columns: list = [None] * len(order)
    start = 0
    while start < len(order):
        # the most rows from start whose widest, the last, keeps the chunk within BLOCK_SLOTS cells
        end = start + max(1, bisect.bisect_right(
            range(start + 1, len(order) + 1), BLOCK_SLOTS, key=lambda e: (e - start) * widths[e - 1]
        ))
        n, mode, floor, width = ns[start:end], modes[start:end], floors[start:end], int(widths[end - 1])
        above = _walks(n, mode, floor, p / q, width)
        below = itertools.repeat(None) if mirror else (
            row[1:] for row in _walks(n, n - mode, floor, q / p, width)
        )
        for r, up, down, n_r, mode_r in zip(order[start:end], above, below, n.tolist(), mode.tolist()):
            columns[r] = window_tails(ks, n_r, mode_r, up, down)
        start = end
    return columns


def _analytic_columns(
    ks: Sequence[int], n_rounds: Sequence[int], pg: float, metric: str
) -> list[list[float]]:
    """Closed-form success probability for every k, one column per n, each from one binomial tail window.

    The per-slot success probability, and for the whole-key metric each k's
    chance that the adversary misses one of the first k bits, are the
    slice's: computed once, not once per n. The windows of all n are walked
    at once (_key_columns).
    """
    if metric == METRIC_WHOLE_KEY:
        missed = [1.0 - pg**k for k in ks]
        # at least k generated bits, and a missed one among the first k
        return [
            [tail * miss for tail, miss in zip(tails, missed)]
            for tails in _key_columns(ks, n_rounds, 1.0 - COLLISION_PROB)
        ]
    return _key_columns(ks, n_rounds, float(secret_bit_prob(COLLISION_PROB, pg)))


def analytic_prob(
    k: int, n: int, d_be: float, sigma: float, rule: str, metric: str, geometry: str, gamma: float
) -> float:
    """Closed-form success probability at one grid point: a sweep's analytic column, one row."""
    delta = delta_mean_pathloss(*build_deployment(d_be, geometry), gamma)
    ((prob,),) = _analytic_columns((k,), (n,), Verdict(delta, sigma, rule).pg, metric)
    return prob


def run_grid_point(
    k: int, n: int, d_be: float, sigma: float, trials: int, base_seed: int, cfg: ScenarioConfig,
    rule: str = RULE_ML, metric: str = METRIC_PER_BIT, geometry: str = GEOMETRY_CANONICAL,
) -> tuple[float, tuple[float, float]]:
    """Empirical success fraction and Wilson interval at one grid point.

    A one-point sweep: its streams are keyed (base_seed, d_be, sigma).
    """
    spec = SweepSpec(
        k=(k,), n_rounds=(n,), d_be=(d_be,), sigma=(sigma,),
        trials=trials, base_seed=base_seed, rule=rule, metric=metric, geometry=geometry,
        scenario=cfg,
    )
    (row,) = sweep(spec)
    return row.p_hat, (row.ci_lo, row.ci_hi)


def sweep(spec: SweepSpec) -> tuple[ResultRow, ...]:
    """One ResultRow per grid point, in the order of itertools.product(k, n_rounds, d_be, sigma).

    The slices simulate one after another, in grid order, on the calling
    thread, each from its own coin and decision streams, keyed (base_seed,
    float64 bits of d_be, float64 bits of sigma); two threads ran them
    15-25% slower, as the GIL serialises their Python glue (see the module
    docstring). A slice that raises ends the sweep: no later slice starts.
    The closed forms run after the last slice.
    """
    if spec.grid_size == 0:
        return ()
    slices = list(itertools.product(spec.d_be, spec.sigma))
    verdicts = [
        Verdict(delta_mean_pathloss(*build_deployment(d_be, spec.geometry), spec.scenario.gamma), sigma, spec.rule)
        for d_be, sigma in slices
    ]
    counts = []
    for verdict, key in zip(verdicts, slices):
        entropy = (spec.base_seed, *(np.array(key) + 0.0).view(np.uint64).tolist())  # -0.0 as 0.0
        counts.append(slice_successes(
            stream(entropy, COINS), stream(entropy, DECISIONS),
            spec.trials, spec.k, spec.n_rounds, verdict, spec.metric,
        ).tolist())
    analytic = [_analytic_columns(spec.k, spec.n_rounds, verdict.pg, spec.metric) for verdict in verdicts]
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

