import hashlib
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fhkex.analysis
from fhkex.analysis import (
    InfeasibleError,
    KeyRequest,
    Probability,
    fading_pb,
    key_prob,
    key_probs,
    min_transmissions,
    privacy_radius,
    secret_bit_prob,
)
from oracle import baseline_pg

# Frozen oracle values, precomputed with scipy.stats.binom.sf and cross-checked
# against exact Fraction summation and 50-digit mpmath before the build.
ORACLE_MIN_N = {64: 156, 128: 295, 256: 567}
ORACLE_TAILS = {
    (128, 300, 0.5): 0.9953693966617947,
    (64, 157, 0.5): 0.9918102769274049,
    (64, 160, 0.5): 0.9955632048100892,
    (256, 570, 0.5): 0.9933024775203764,
    (10, 50, 0.2): 0.5562595867082483,
    (3, 8, 0.7): 0.98870779,
}
ORACLE_PRIVACY_RADIUS_400 = 267.6773758084717  # k=64, sigma=8, target=0.99


def exact_tail(k: int, n: int, p: Fraction) -> Fraction:
    """Direct summation oracle over success counts, exact rationals."""
    q = 1 - p
    return sum(
        Fraction(math.comb(n, i)) * p**i * q ** (n - i) for i in range(k, n + 1)
    )


def enumerated_tail(k: int, n: int, p: Fraction) -> Fraction:
    """Brute-force oracle enumerating every outcome sequence."""
    q = 1 - p
    total = Fraction(0)
    for seq in itertools.product((0, 1), repeat=n):
        successes = sum(seq)
        if successes >= k:
            total += p**successes * q ** (n - successes)
    return total


def exact_tails(n: int, p: float) -> list[float]:
    """P(X >= k) for k = 0..n+1, X ~ Binomial(n, p), from exact integer terms.

    With p = a / d exactly, term_i * d**n = C(n, i) a**i (d - a)**(n - i); the
    ratio recursion between neighbours divides exactly, and int / int rounds
    the exact quotient once.
    """
    a, d = p.as_integer_ratio()
    b = d - a
    terms = [b**n]
    for i in range(n):
        terms.append(terms[-1] * (n - i) * a // ((i + 1) * b))
    tails = [0] * (n + 2)
    for i in range(n, -1, -1):
        tails[i] = tails[i + 1] + terms[i]
    return [t / d**n for t in tails]


def test_probability_bounds():
    assert float(Probability(0.0)) == 0.0
    assert float(Probability(1.0)) == 1.0
    for bad in (-0.01, 1.01, float("nan")):
        with pytest.raises(ValueError):
            Probability(bad)


def test_key_request_validation():
    KeyRequest(k=1, target=0.5)
    with pytest.raises(ValueError):
        KeyRequest(k=0)
    with pytest.raises(ValueError):
        KeyRequest(k=64, target=1.0)
    with pytest.raises(ValueError):
        KeyRequest(k=64, target=0.0)


def test_secret_bit_prob():
    assert float(secret_bit_prob(0.5, 0.0)) == 0.5
    assert float(secret_bit_prob(0.5, 1.0)) == 0.0
    assert float(secret_bit_prob(0.5, 0.5)) == 0.25
    with pytest.raises(ValueError):
        secret_bit_prob(1.5, 0.0)


def test_baseline_pg():
    assert float(baseline_pg(60.0, 60.0)) == 0.0
    assert float(baseline_pg(70.0, 20.0)) == 1.0
    assert float(baseline_pg(50.0000001, 50.0)) == 0.0  # inside the 1e-3 m tolerance
    assert float(baseline_pg(50.01, 50.0)) == 1.0
    with pytest.raises(ValueError):
        baseline_pg(0.0, 50.0)


def test_key_prob_edges():
    assert float(key_prob(0, 10, 0.5)) == 1.0
    assert float(key_prob(129, 128, 0.5)) == 0.0
    assert float(key_prob(5, 10, 0.0)) == 0.0
    assert float(key_prob(5, 10, 1.0)) == 1.0
    with pytest.raises(ValueError):
        key_prob(1, 0, 0.5)
    with pytest.raises(ValueError):
        key_prob(-1, 10, 0.5)
    with pytest.raises(ValueError):
        key_prob(1, 10, 1.5)
    for k, n in ((1.5, 10), (1, 10.0)):
        with pytest.raises(ValueError, match="must be integers"):
            key_prob(k, n, 0.5)


def test_key_prob_matches_frozen_oracle():
    for (k, n, p), expected in ORACLE_TAILS.items():
        assert float(key_prob(k, n, p)) == pytest.approx(expected, abs=1e-12)


def test_key_prob_against_exact_direct_summation():
    for n in (1, 2, 7, 18, 30):
        for p_float in (0.5, 0.25, 0.9):
            p = Fraction(p_float)  # exact binary value the implementation sees
            for k in (1, n // 2, n):
                if k < 1:
                    continue
                want = float(exact_tail(k, n, p))
                got = float(key_prob(k, n, p_float))
                assert got == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("n", [60, 600, 601, 2000, 2001])
@pytest.mark.parametrize("p", [0.5, 0.25, float(fading_pb(20.0, 8.0)), 0.9])
def test_key_probs_against_exact_rationals(n, p):
    # every k, so the truncated window's edges and the 0/1 answers outside it are checked
    want = exact_tails(n, p)
    got = key_probs(range(n + 2), n, p)
    assert len(got) == n + 2
    for k in range(n + 2):
        assert float(got[k]) == pytest.approx(want[k], abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    ks=st.lists(st.integers(0, 2500), max_size=12),
    n=st.integers(1, 2000),
    p=st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
)
def test_key_probs_is_key_prob_elementwise(ks, n, p):
    tails = key_probs(ks, n, p)
    assert [float(t) for t in tails] == [float(key_prob(k, n, p)) for k in ks]
    by_k = [float(t) for t in key_probs(sorted(ks), n, p)]
    assert by_k == sorted(by_k, reverse=True)


@pytest.mark.parametrize("p", [0.5, 0.25])
def test_key_probs_against_exact_rationals_at_bound_limit(p):
    # n = 10^4 is where the README states the 1e-12 bound
    n = 10**4
    want = exact_tails(n, p)
    got = key_probs(range(n + 2), n, p)
    assert max(abs(float(g) - w) for g, w in zip(got, want)) <= 1e-13


def two_sided_key_probs(ks, n: int, p: float) -> list[float]:
    """Reference for key_probs at 0 < p < 1 with n >= 1: the window walked up
    and down from the mode by the ratio recursion, at every p."""
    q = 1.0 - p
    floor = math.exp(-fhkex.analysis.TAIL_CUTOFF - math.log(n + 1))
    mode = min(n, int((n + 1) * p))
    above = [1.0]
    t, ratio = 1.0, p / q
    for i in range(mode, n):
        t *= (n - i) / (i + 1) * ratio
        if t < floor:
            break
        above.append(t)
    below = []
    t, ratio = 1.0, q / p
    for i in range(mode, 0, -1):
        t *= i / (n - i + 1) * ratio
        if t < floor:
            break
        below.append(t)
    total = math.fsum(above + below)
    hi = mode + len(above) - 1
    lo = mode - len(below)
    probs = []
    for k in ks:
        if k > hi:
            probs.append(0.0)
        elif k <= lo:
            probs.append(1.0)
        elif k > mode:
            probs.append(math.fsum(above[k - mode :]) / total)
        else:
            probs.append(1.0 - math.fsum(below[mode - k :]) / total)
    return probs


# p_b = 1/2 takes the mirrored window; its float neighbours must walk both ways
@pytest.mark.parametrize("p", [0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)], ids=float.hex)
def test_key_probs_mirror_is_the_two_sided_walk(p):
    for n in (*range(1, 2001), 10**4, 10**4 + 1, 10**6, 10**6 + 1):
        ks = range(n + 2)
        got = [float.hex(value) for value in key_probs(ks, n, p)]
        assert got == [float.hex(value) for value in two_sided_key_probs(ks, n, p)], n


def _pin_ks(n: int, p: float) -> list[int]:
    """k at 0, at the mode, two either side of each window edge, and at n + 1.

    The edges are found from log-gamma terms, which may put an edge one off
    the ratio walk's; two either side covers the edges +-1 either way.
    """
    mode = min(n, int((n + 1) * p))
    cut = fhkex.analysis.TAIL_CUTOFF + math.log(n + 1)

    def log_term(i: int) -> float:  # ln P(X = i), less the ln n! every term shares
        return i * math.log(p) + (n - i) * math.log1p(-p) - math.lgamma(i + 1) - math.lgamma(n - i + 1)

    top = log_term(mode)
    lo = hi = mode
    while lo > 0 and log_term(lo - 1) - top >= -cut:
        lo -= 1
    while hi < n and log_term(hi + 1) - top >= -cut:
        hi += 1
    edges = (lo, hi + 1)  # the lowest k read as 1 by the window's prefix; the first k read as 0
    ks = {0, mode, n + 1}
    ks.update(k for e in edges for k in range(e - 2, e + 3) if 0 <= k <= n + 1)
    return sorted(ks)


# SHA-256 of the float.hex of key_probs over the grid of test_key_probs_bits_are_frozen
KEY_PROBS_SHA256 = "0c20ec31677f6e196d1ce939476d2e3e8bfbc64d13ae83044c0f039276e0bc5d"


def test_key_probs_bits_are_frozen():
    lines = []
    for n in (*range(1, 61), 999, 10**4, 10**6):
        for p in (0.5, 0.25, 1e-3, 0.999, 3e-6):
            ks = _pin_ks(n, p)
            for k, value in zip(ks, key_probs(ks, n, p)):
                assert 0.0 <= value <= 1.0, (k, n, p, value)
                lines.append(f"{k} {n} {p!r} {float.hex(value)}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == KEY_PROBS_SHA256


def test_key_prob_against_sequence_enumeration():
    for n in (4, 9, 14):
        p = Fraction(1, 2)
        for k in range(1, n + 1):
            want = float(enumerated_tail(k, n, p))
            assert float(key_prob(k, n, 0.5)) == pytest.approx(want, abs=1e-13)


def test_key_prob_complement_identity():
    # upper tail plus the complementary tail of flipped successes is one
    for n in (5, 12, 30):
        for p in (0.5, 0.2, 0.77):
            for k in range(1, n + 1):
                total = float(key_prob(k, n, p)) + float(key_prob(n - k + 1, n, 1.0 - p))
                assert total == pytest.approx(1.0, abs=1e-12)


def test_key_prob_monotonicities():
    values_n = [float(key_prob(64, n, 0.5)) for n in range(64, 400, 8)]
    assert all(b >= a - 1e-15 for a, b in zip(values_n, values_n[1:]))
    values_k = [float(key_prob(k, 300, 0.5)) for k in range(1, 300, 7)]
    assert all(b <= a + 1e-15 for a, b in zip(values_k, values_k[1:]))
    values_p = [float(key_prob(64, 200, p)) for p in np.linspace(0.01, 0.99, 40)]
    assert all(b >= a - 1e-15 for a, b in zip(values_p, values_p[1:]))


def test_key_prob_large_n():
    # far above the mean the tail saturates; far below it vanishes
    assert float(key_prob(64, 10**6, 0.25)) == 1.0
    assert float(key_prob(600_000, 10**6, 0.25)) == 0.0


def test_min_transmissions_frozen_minima():
    for k, expected in ORACLE_MIN_N.items():
        got = min_transmissions(KeyRequest(k=k, target=0.99), 0.5)
        assert got == expected
        assert float(key_prob(k, got, 0.5)) >= 0.99
        assert float(key_prob(k, got - 1, 0.5)) < 0.99


def test_min_transmissions_matches_linear_scan():
    for p in (0.5, 0.25, 0.9, float(fading_pb(20.0, 8.0)), float(fading_pb(35.0, 8.0)), 1.0):
        for k in (1, 2, 5, 12):
            for target in (0.99, 0.5, 0.01):
                n = k
                while float(key_prob(k, n, p)) < target:
                    n += 1
                assert min_transmissions(KeyRequest(k=k, target=target), p) == n


def test_min_transmissions_evaluation_count(monkeypatch):
    evals = []
    exact = fhkex.analysis.key_prob
    monkeypatch.setattr(
        fhkex.analysis, "key_prob", lambda *args: evals.append(args) or exact(*args)
    )
    for k in ORACLE_MIN_N:
        evals.clear()
        min_transmissions(KeyRequest(k=k, target=0.99), 0.5)
        assert len(evals) <= 4  # galloping up from the mean k / p_b took 7-9
    for d_be in (20.0, 35.0):
        evals.clear()
        min_transmissions(KeyRequest(k=128, target=0.99), fading_pb(d_be, 8.0))
        assert len(evals) <= 4  # galloping up from the mean k / p_b took 11-13


def test_min_transmissions_geometric_start(monkeypatch):
    evals = []
    exact = fhkex.analysis.key_prob
    monkeypatch.setattr(
        fhkex.analysis, "key_prob", lambda *args: evals.append(args) or exact(*args)
    )
    # k = 1 waits a geometric time, whose quantile is exact; Cornish-Fisher took 20
    assert min_transmissions(KeyRequest(k=1, target=0.999999), 0.001) == 13_809
    assert len(evals) <= 3


def test_min_transmissions_evaluations_over_grid(monkeypatch):
    evals = []
    exact = fhkex.analysis.key_prob
    monkeypatch.setattr(
        fhkex.analysis, "key_prob", lambda *args: evals.append(args) or exact(*args)
    )
    counts = {}
    for p, k, target in itertools.product(
        (0.001, 0.01, 0.1, 0.25, 0.5, 0.9),
        (1, 2, 4, 8, 16, 64, 128, 256, 512, 1024),
        (0.01, 0.5, 0.9, 0.99, 0.999, 0.999999),
    ):
        evals.clear()
        n = min_transmissions(KeyRequest(k=k, target=target), p)
        counts[p, k, target] = len(evals)
        assert exact(k, n, p) >= target, (p, k, target)
        assert n == k or exact(k, n - 1, p) < target, (p, k, target)
    # a Cornish-Fisher start took 18-20 on the skewed small-p, small-k cases,
    # 3.73 on average and 20 at most
    assert max(counts[0.001, k, 0.999999] for k in (2, 4, 8, 16)) <= 3
    # the Poisson start took 4 on these, where k p_b >= 50
    assert max(counts[case] for case in ((0.1, 512, 0.99), (0.1, 1024, 0.999), (0.1, 1024, 0.999999))) <= 2
    assert sum(counts.values()) / len(counts) <= 2.06
    assert max(counts.values()) <= 4


@pytest.mark.parametrize("k", [1, 2, 5, 40, 1024])
@pytest.mark.parametrize("prob", [1e-12, 0.01, 0.5, 0.99, 0.999999])
def test_gamma_quantile_is_the_poisson_root(k, prob):
    # P(Gamma(k, 1) <= x) = P(Poisson(x) >= k); each tail summed term by term
    x = fhkex.analysis._gamma_quantile(k, prob)
    terms = [math.exp(j * math.log(x) - x - math.lgamma(j + 1)) for j in range(k + 4000)]
    if prob <= 0.5:
        assert math.fsum(terms[k:]) == pytest.approx(prob, rel=1e-9)
    else:
        assert math.fsum(terms[:k]) == pytest.approx(1.0 - prob, rel=1e-9)


def test_min_transmissions_certain_generation():
    assert min_transmissions(KeyRequest(k=1, target=0.99), 1.0) == 1


def test_min_transmissions_exact_at_one_slot():
    # P(one success in one slot) is p_b = 0.9 exactly, so one slot meets target 0.9
    assert float(key_prob(1, 1, 0.9)) == 0.9
    assert min_transmissions(KeyRequest(k=1, target=0.9), 0.9) == 1


def test_min_transmissions_infeasible():
    with pytest.raises(InfeasibleError):
        min_transmissions(KeyRequest(k=4, target=0.99), 0.0)
    with pytest.raises(InfeasibleError):
        min_transmissions(KeyRequest(k=4, target=0.99), 1e-12)


def test_fading_pb_values():
    assert float(fading_pb(20.0, 8.0)) == pytest.approx(0.023087741329919475, abs=1e-12)
    assert float(fading_pb(20.0, 0.0)) == 0.0
    limit = float(fading_pb(1e6, 8.0))
    assert 0.2499 < limit < 0.25
    with pytest.raises(ValueError):
        fading_pb(0.0, 8.0)


def test_fading_pb_strictly_increasing():
    distances = np.geomspace(1.0, 1e5, 60)
    values = [float(fading_pb(d, 8.0)) for d in distances]
    assert all(b > a for a, b in zip(values, values[1:]))
    # below sigma ~ 2 the guessing CDF saturates to 1.0 at double precision,
    # so strictness is only observable where the tail is representable
    sigmas = np.linspace(2.0, 30.0, 60)
    values = [float(fading_pb(20.0, s)) for s in sigmas]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_fading_pb_recovers_no_fading_branches():
    # unequal distances: certain adversary, no secret bits
    for sigma in (1e-3, 1e-6):
        assert float(fading_pb(20.0, sigma)) == pytest.approx(0.0, abs=1e-9)
    assert float(fading_pb(20.0, 0.0)) == 0.0
    # vanishing distance gap: the coin-flip limit of one half times one half
    assert float(fading_pb(1e9, 8.0)) == pytest.approx(0.25, abs=1e-4)


def test_privacy_radius_infeasible_cases():
    with pytest.raises(InfeasibleError):
        privacy_radius(KeyRequest(k=64, target=0.99), n=63, sigma=8.0)
    with pytest.raises(InfeasibleError):
        privacy_radius(KeyRequest(k=64, target=0.99), n=100, sigma=8.0)  # 0.25 cap too low
    with pytest.raises(InfeasibleError):
        privacy_radius(KeyRequest(k=64, target=0.99), n=400, sigma=0.0)


def test_privacy_radius_overwhelming_transmissions():
    # a million slots pin the radius to a few meters (oracle: 3.72498944803828)
    radius = privacy_radius(KeyRequest(k=64, target=0.99), n=10**6, sigma=8.0)
    assert radius == pytest.approx(3.72498944803828, abs=1e-4)
    # with billions the radius collapses onto the modeled minimum distance
    radius = privacy_radius(KeyRequest(k=64, target=0.99), n=4 * 10**9, sigma=8.0)
    assert radius == 1.0


def test_privacy_radius_matches_frozen_fixture():
    radius = privacy_radius(KeyRequest(k=64, target=0.99), n=400, sigma=8.0)
    assert radius == pytest.approx(ORACLE_PRIVACY_RADIUS_400, abs=1e-4)
    # boundary behaviour: met just above, unmet just below
    above = float(key_prob(64, 400, fading_pb(radius + 1e-5, 8.0)))
    below = float(key_prob(64, 400, fading_pb(radius - 1e-3, 8.0)))
    assert above >= 0.99 > below


def bisection_privacy_radius(req, n, sigma, gamma=3.5, d_min=1.0, tol=1e-6):
    """The radius search before the secant: doubling, then bisection to tol."""
    if n < req.k:
        raise InfeasibleError(f"n = {n} transmissions cannot yield a {req.k}-bit key")

    def met(d_be: float) -> bool:
        return key_prob(req.k, n, fading_pb(d_be, sigma, gamma)) >= req.target

    far = 1e12  # proxy for the d_be -> infinity limit
    if not met(far):
        raise InfeasibleError(
            f"target {req.target} unreachable for k={req.k}, n={n}, sigma={sigma}"
        )
    if met(d_min):
        return d_min
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
    return hi


def test_privacy_radius_agrees_with_bisection():
    feasible = 0
    # the normal approximation starts above the root at 0.99 and below it at 0.5,
    # so the search gallops down for the one and up for the other
    for n, sigma, k, target in itertools.product(
        (400, 1000, 5000, 20000), (2.0, 4.0, 8.0), (64, 128, 256), (0.99, 0.5)
    ):
        req = KeyRequest(k=k, target=target)
        try:
            want = bisection_privacy_radius(req, n, sigma)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                privacy_radius(req, n, sigma)
            continue
        feasible += 1
        radius = privacy_radius(req, n, sigma)
        assert abs(radius - want) <= 1e-6
        if radius > 1.0:  # the target is met at the radius and missed tol below it
            assert float(key_prob(k, n, fading_pb(radius, sigma))) >= target
            assert float(key_prob(k, n, fading_pb(radius - 1e-6, sigma))) < target
    assert feasible >= 20


def test_privacy_radius_evaluation_count(monkeypatch):
    evals = []
    exact = fhkex.analysis.key_prob
    monkeypatch.setattr(
        fhkex.analysis, "key_prob", lambda *args: evals.append(args) or exact(*args)
    )
    # (k, n, sigma): most probes, where bisection took 25-39
    for (k, n, sigma), most in {
        (64, 400, 8.0): 10, (128, 700, 8.0): 10, (64, 400, 14.0): 10, (64, 10**6, 8.0): 10,
    }.items():
        evals.clear()
        privacy_radius(KeyRequest(k=k, target=0.99), n=n, sigma=sigma)
        assert len(evals) <= most


def test_privacy_radius_far_tail_evaluation_count(monkeypatch):
    """At target 0.999999 over these 42 feasible cases the search takes at most
    9 evaluations and 8.02 on average. Without the Cornish-Fisher skew term the
    start took 14 at most (k 64, n 1,000, sigma 2); without the closing step
    after a probe that meets the target exactly, the narrowing bisected down to
    RADIUS_TOL and took 16 at most (k 256, n 2,000, sigma 2) and 8.71 on average.
    """
    evals = []
    exact = fhkex.analysis.key_prob
    monkeypatch.setattr(
        fhkex.analysis, "key_prob", lambda *args: evals.append(args) or exact(*args)
    )
    counts = []
    ns = (400, 1000, 2000, 5000, 10000, 20000)
    for n, sigma, k in itertools.product(ns, (2.0, 4.0, 8.0), (64, 128, 256)):
        evals.clear()
        try:
            privacy_radius(KeyRequest(k=k, target=0.999999), n=n, sigma=sigma)
        except InfeasibleError:
            continue
        counts.append(len(evals))
    assert len(counts) == 42
    assert max(counts) <= 9
    assert sum(counts) / len(counts) <= 8.05


def test_privacy_radius_raises_past_its_probe_cap(monkeypatch):
    # met at the far proxy's first check, then never: the upward gallop would
    # probe the far proxy forever; a missing cap fails on the stopper instead
    probes = []

    def key_prob(k, n, p_b):
        probes.append(p_b)
        if len(probes) > 10**5:
            raise AssertionError("privacy_radius has no probe cap")
        return 1.0 if len(probes) == 1 else 0.0

    monkeypatch.setattr(fhkex.analysis, "key_prob", key_prob)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="did not end"):
        privacy_radius(KeyRequest(k=64, target=0.99), n=400, sigma=8.0)
    assert time.perf_counter() - start < 1.0
    assert len(probes) == fhkex.analysis.RADIUS_PROBES


def test_privacy_radius_ends_where_floats_are_sparser_than_its_tolerance():
    # the root lies near 10^10 m, where floats are 2^-19 m apart, more than
    # RADIUS_TOL: narrowing to RADIUS_TOL there never ended
    target = float(key_prob(64, 256, fading_pb(1e10, 8.0)))
    radius = privacy_radius(KeyRequest(k=64, target=target), n=256, sigma=8.0)
    assert 0.9e10 < radius < 1.1e10
    assert float(key_prob(64, 256, fading_pb(radius, 8.0))) >= target


def test_privacy_radius_monotone_trends():
    r_400 = privacy_radius(KeyRequest(k=64, target=0.99), n=400, sigma=8.0)
    r_500 = privacy_radius(KeyRequest(k=64, target=0.99), n=500, sigma=8.0)
    assert r_500 < r_400  # more transmissions shrink the exposed region

    r_sigma14 = privacy_radius(KeyRequest(k=64, target=0.99), n=400, sigma=14.0)
    assert r_sigma14 < r_400  # stronger fading shrinks it too

    r_k64 = privacy_radius(KeyRequest(k=64, target=0.99), n=700, sigma=8.0)
    r_k128 = privacy_radius(KeyRequest(k=128, target=0.99), n=700, sigma=8.0)
    assert r_k128 > r_k64  # larger keys push the region outward
