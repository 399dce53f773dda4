import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhkex.channel import (
    delta_mean_pathloss,
    path_loss_deterministic,
    rss,
)
from fhkex.scenario import ScenarioConfig

NO_FADING = ScenarioConfig(sigma=0.0)  # pl0 40 dB, gamma 3.5, d0 1 m, pt 20 dBm


def test_deterministic_loss_reference_distance():
    assert path_loss_deterministic(1.0, NO_FADING) == 40.0


def test_deterministic_loss_values():
    assert path_loss_deterministic(10.0, NO_FADING) == pytest.approx(75.0, abs=1e-12)
    assert path_loss_deterministic(50.0, NO_FADING) == pytest.approx(99.46395015176066, abs=1e-9)


def test_deterministic_loss_below_reference_rejected():
    with pytest.raises(ValueError):
        path_loss_deterministic(0.5, NO_FADING)


def test_deterministic_loss_strictly_increasing():
    grid = np.geomspace(1.0, 1e4, 200)
    losses = [path_loss_deterministic(d, NO_FADING) for d in grid]
    assert all(b > a for a, b in zip(losses, losses[1:]))


def _shadowed_loss(d, cfg, rng):
    """The shadowed path loss that rss subtracts from the transmit power."""
    return cfg.pt - rss(d, cfg, rng)


def test_shadowed_loss_degenerates_without_fading():
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert _shadowed_loss(10.0, NO_FADING, rng) == 75.0


def test_shadowed_loss_consumes_exactly_one_draw():
    s = ScenarioConfig(sigma=8.0)
    rng = np.random.default_rng(42)
    value = _shadowed_loss(50.0, s, rng)
    follower = rng.standard_normal()

    ref = np.random.default_rng(42)
    first = ref.standard_normal()
    second = ref.standard_normal()
    assert value == path_loss_deterministic(50.0, NO_FADING) + 8.0 * first
    assert follower == second

    # the draw happens even when sigma = 0, keeping replay streams aligned
    rng_a = np.random.default_rng(7)
    _shadowed_loss(50.0, NO_FADING, rng_a)
    rng_b = np.random.default_rng(7)
    rng_b.standard_normal()
    assert rng_a.standard_normal() == rng_b.standard_normal()


def test_shadowed_loss_moments_sigma8():
    rng = np.random.default_rng(2024)
    s = ScenarioConfig(sigma=8.0)
    n = 10**6
    det = path_loss_deterministic(50.0, NO_FADING)
    samples = np.array([_shadowed_loss(50.0, s, rng) for _ in range(n)])
    assert samples.mean() == pytest.approx(99.46395015176066, abs=0.03)
    assert samples.std() == pytest.approx(8.0, abs=0.03)
    # the sample mean converges onto the deterministic loss
    assert abs(samples.mean() - det) <= 5 * 8.0 / math.sqrt(n)


def test_shadowed_loss_moments_sigma14():
    rng = np.random.default_rng(99)
    s = ScenarioConfig(sigma=14.0)
    samples = 40.0 + 35.0 * math.log10(50.0) + 14.0 * rng.standard_normal(10**6)
    # the implementation must match these moments draw for draw
    rng2 = np.random.default_rng(99)
    impl = np.array([_shadowed_loss(50.0, s, rng2) for _ in range(1000)])
    assert np.array_equal(impl, samples[:1000])
    assert samples.std() == pytest.approx(14.0, abs=0.05)


def test_identical_seeds_replay_bit_exact():
    s = ScenarioConfig(sigma=8.0)
    a = np.random.default_rng(1234)
    b = np.random.default_rng(1234)
    seq_a = [_shadowed_loss(d, s, a) for d in (1.0, 10.0, 50.0, 70.0)]
    seq_b = [_shadowed_loss(d, s, b) for d in (1.0, 10.0, 50.0, 70.0)]
    assert seq_a == seq_b


def test_rss_values_without_fading():
    rng = np.random.default_rng(0)
    assert rss(1.0, NO_FADING, rng) == -20.0
    assert rss(50.0, NO_FADING, rng) == pytest.approx(-79.46395015176066, abs=1e-9)


def test_rss_linear_in_transmit_power():
    rng = np.random.default_rng(0)
    for d in (1.0, 10.0, 50.0, 500.0):
        low = rss(d, NO_FADING, rng)
        high = rss(d, NO_FADING.replace(pt=30.0), rng)
        assert high - low == pytest.approx(10.0, abs=1e-9)


def test_rss_strictly_decreasing_in_distance():
    rng = np.random.default_rng(0)
    grid = np.geomspace(1.0, 1e4, 100)
    values = [rss(d, NO_FADING, rng) for d in grid]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_delta_equidistant_is_zero():
    assert delta_mean_pathloss(60.0, 60.0, 3.5) == 0.0


def test_delta_values():
    assert delta_mean_pathloss(70.0, 20.0, 3.5) == pytest.approx(19.04238155225965, abs=1e-9)
    assert delta_mean_pathloss(52.0, 2.0, 3.5) == pytest.approx(49.524067178978626, abs=1e-9)


@given(
    st.floats(min_value=0.1, max_value=1e5),
    st.floats(min_value=0.1, max_value=1e5),
    st.floats(min_value=0.5, max_value=6.0),
)
@settings(deadline=None)
def test_delta_antisymmetric(d_ae, d_be, gamma):
    forward = delta_mean_pathloss(d_ae, d_be, gamma)
    backward = delta_mean_pathloss(d_be, d_ae, gamma)
    assert forward == pytest.approx(-backward, abs=1e-9)


def test_delta_rejects_nonpositive_distances():
    with pytest.raises(ValueError):
        delta_mean_pathloss(0.0, 10.0, 3.5)
    with pytest.raises(ValueError):
        delta_mean_pathloss(10.0, -1.0, 3.5)
