"""Scenario inputs: the adversary's distances in two geometries, and the simulation parameters."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Iterator, TextIO, Union


class ConfigError(ValueError):
    """Invalid scenario input; ``code`` names the violated constraint."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


#: Half the default separation of the two legitimate nodes (they sit 50 m apart).
NODE_HALF_SPACING = 25.0

GEOMETRY_CANONICAL = "canonical"
GEOMETRY_EQUIDISTANT = "equidistant"
GEOMETRIES = (GEOMETRY_CANONICAL, GEOMETRY_EQUIDISTANT)


def build_deployment(d_be: float, geometry: str = GEOMETRY_CANONICAL) -> tuple[float, float]:
    """The adversary's distances (d_ae, d_be) to Alice and Bob, in meters, from d_be as given.

    Canonical: collinear, Eve d_be behind Bob, who sits 50 m from Alice, so
    d_ae = d_be + 50. Equidistant: Eve on the perpendicular bisector, d_be
    from both nodes, which needs d_be >= 25 m (half the node spacing).
    """
    if not math.isfinite(d_be):
        raise ConfigError("invalid-dbe", f"d_be must be finite, got {d_be}")
    if geometry == GEOMETRY_EQUIDISTANT:
        if d_be < NODE_HALF_SPACING:
            raise ConfigError(
                "invalid-dbe",
                f"equidistant placement needs d >= {NODE_HALF_SPACING}, got {d_be}",
            )
        return d_be, d_be
    if not d_be > 0.0:
        raise ConfigError("invalid-dbe", f"d_be must be positive, got {d_be}")
    return d_be + 2 * NODE_HALF_SPACING, d_be


@dataclass(frozen=True)
class ScenarioConfig:
    """Channel and protocol parameters for one simulated session.

    slot_duration is metadata only (wall-clock estimates in reports); the
    simulator is slot-synchronous and never waits.
    """

    gamma: float = dataclasses.field(default=3.5, metadata={"help": "path loss exponent"})
    sigma: float = dataclasses.field(default=8.0, metadata={"help": "shadowing std-dev, dB"})
    pl0: float = dataclasses.field(default=40.0, metadata={"help": "reference path loss, dB"})
    d0: float = dataclasses.field(default=1.0, metadata={"help": "reference distance, m"})
    pt: float = dataclasses.field(default=20.0, metadata={"help": "transmit power, dBm"})
    slot_duration: float = dataclasses.field(default=1e-3, metadata={"help": "slot length, s"})
    n_rounds: int = dataclasses.field(default=600, metadata={"help": "protocol slots per session"})
    seed: int = dataclasses.field(default=0, metadata={"help": "64-bit RNG seed"})

    def replace(self, **kwargs) -> "ScenarioConfig":
        return dataclasses.replace(self, **kwargs)


CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(ScenarioConfig))

_INT_FIELDS = tuple(f.name for f in dataclasses.fields(ScenarioConfig) if type(f.default) is int)


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Return cfg unchanged iff every field invariant holds, else raise ConfigError."""
    for name in CONFIG_FIELDS:
        value = getattr(cfg, name)
        if name not in _INT_FIELDS and not math.isfinite(value):
            raise ConfigError(f"invalid-{name.replace('_', '-')}", f"{name} must be finite, got {value}")
    if not cfg.gamma > 0.0:
        raise ConfigError("invalid-gamma", f"gamma must be > 0, got {cfg.gamma}")
    if not cfg.sigma >= 0.0:
        raise ConfigError("invalid-sigma", f"sigma must be >= 0, got {cfg.sigma}")
    if not cfg.d0 > 0.0:
        raise ConfigError("invalid-d0", f"d0 must be > 0, got {cfg.d0}")
    if not cfg.slot_duration > 0.0:
        raise ConfigError(
            "invalid-slot-duration",
            f"slot_duration must be > 0, got {cfg.slot_duration}",
        )
    if not isinstance(cfg.n_rounds, int) or cfg.n_rounds < 1:
        raise ConfigError("invalid-rounds", f"n_rounds must be >= 1, got {cfg.n_rounds}")
    if not isinstance(cfg.seed, int) or not (0 <= cfg.seed < 2**64):
        raise ConfigError("invalid-seed", f"seed must be a 64-bit unsigned int, got {cfg.seed}")
    return cfg


def check_adversary_distance(d_be: float, d0: float) -> None:
    """Refuse an adversary distance, as the user gave it, below the reference distance d0."""
    if not d_be >= d0:
        raise ValueError(f"adversary distance {d_be} m below reference distance {d0} m")


@contextlib.contextmanager
def text_stream(target: Union[str, TextIO], mode: str = "r") -> Iterator[TextIO]:
    """A path opened as UTF-8 text with newline="" and closed on exit, or an open stream, left open."""
    if isinstance(target, str):
        with open(target, mode, newline="", encoding="utf-8") as fh:
            yield fh
    else:
        yield target


def load_config(path: str) -> ScenarioConfig:
    """Load a ScenarioConfig from a flat JSON file.

    The schema is one JSON object whose keys are exactly the ScenarioConfig
    field names; missing keys take the defaults, unknown keys are rejected.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("invalid-config-file", f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("invalid-config-file", f"{path}: top level must be an object")
    unknown = sorted(set(raw) - set(CONFIG_FIELDS))
    if unknown:
        raise ConfigError("unknown-config-key", f"{path}: unknown keys {unknown}")
    coerced = {}
    for key, value in raw.items():
        if key in _INT_FIELDS:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"invalid-{key.replace('_', '-')}", f"{key} must be an integer")
            coerced[key] = value
        else:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"invalid-{key.replace('_', '-')}", f"{key} must be a number")
            try:
                coerced[key] = float(value)
            except OverflowError as exc:
                raise ConfigError(
                    f"invalid-{key.replace('_', '-')}", f"{key} is too large for a float"
                ) from exc
    return validate_config(ScenarioConfig(**coerced))
