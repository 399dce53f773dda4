import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhkex.scenario import (
    GEOMETRY_CANONICAL,
    GEOMETRY_EQUIDISTANT,
    ConfigError,
    ScenarioConfig,
    build_deployment,
    load_config,
    validate_config,
)


def test_canonical_deployment_distances():
    assert build_deployment(20.0) == (70.0, 20.0)
    assert build_deployment(2.0) == (52.0, 2.0)
    d_ae, d_be = build_deployment(50.0)
    assert (d_ae, d_be) == (100.0, 50.0)
    assert d_ae / d_be == 2.0


@pytest.mark.parametrize("d_be", [2.0, 12.25, 20.0, 50.0, 1024.0])
def test_canonical_gap_exact_for_dyadic_distances(d_be):
    d_ae, d_be = build_deployment(d_be)
    assert d_ae - d_be == 50.0


@given(st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))
@settings(deadline=None)
def test_canonical_gap_for_arbitrary_distances(d_be):
    d_ae, d_be_out = build_deployment(d_be)
    assert d_be_out == d_be  # the distance as given
    assert d_ae - d_be == pytest.approx(50.0, abs=1e-9)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_canonical_rejects_nonpositive(bad):
    with pytest.raises(ConfigError) as err:
        build_deployment(bad)
    assert err.value.code == "invalid-dbe"


def test_equidistant_deployment():
    d_ae, d_be = build_deployment(60.0, GEOMETRY_EQUIDISTANT)
    assert d_ae == d_be == 60.0
    with pytest.raises(ConfigError):
        build_deployment(24.9, GEOMETRY_EQUIDISTANT)


def test_validate_config_accepts_defaults():
    cfg = ScenarioConfig(gamma=3.5, sigma=8.0, n_rounds=600)
    assert validate_config(cfg) is cfg


@pytest.mark.parametrize(
    "kwargs,code",
    [
        (dict(gamma=0.0), "invalid-gamma"),
        (dict(gamma=-2.0), "invalid-gamma"),
        (dict(sigma=-1.0), "invalid-sigma"),
        (dict(pl0=float("inf")), "invalid-pl0"),
        (dict(d0=0.0), "invalid-d0"),
        (dict(pt=float("nan")), "invalid-pt"),
        (dict(slot_duration=0.0), "invalid-slot-duration"),
        (dict(n_rounds=0), "invalid-rounds"),
        (dict(seed=-1), "invalid-seed"),
        (dict(seed=2**64), "invalid-seed"),
    ],
)
def test_validate_config_names_each_violation(kwargs, code):
    with pytest.raises(ConfigError) as err:
        validate_config(ScenarioConfig(**kwargs))
    assert err.value.code == code


@pytest.mark.parametrize("field", ["gamma", "sigma", "pl0", "d0", "pt", "slot_duration"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_validate_config_says_non_finite(field, bad):
    with pytest.raises(ConfigError) as err:
        validate_config(ScenarioConfig(**{field: bad}))
    assert err.value.code == f"invalid-{field.replace('_', '-')}"
    assert f"{field} must be finite, got {bad}" in str(err.value)


# ids named after the per-geometry builders this test first covered
@pytest.mark.parametrize("geometry", [
    pytest.param(GEOMETRY_CANONICAL, id="build_canonical_deployment"),
    pytest.param(GEOMETRY_EQUIDISTANT, id="build_equidistant_deployment"),
])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_deployments_say_non_finite(geometry, bad):
    with pytest.raises(ConfigError) as err:
        build_deployment(bad, geometry)
    assert err.value.code == "invalid-dbe"
    assert f"d_be must be finite, got {bad}" in str(err.value)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"gamma": 3.0, "sigma": 2.0, "n_rounds": 100, "seed": 7}))
    cfg = load_config(str(path))
    assert cfg.gamma == 3.0
    assert cfg.sigma == 2.0
    assert cfg.n_rounds == 100
    assert cfg.seed == 7
    assert cfg.pl0 == 40.0  # untouched default


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"gamma": 3.0, "bogus": 1}))
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.code == "unknown-config-key"


def test_load_config_rejects_bad_types(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"n_rounds": 12.5}))
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(str(tmp_path / "nope.json"))
