"""Path loss and received signal strength models.

Log-distance path loss with an optional log-normal shadowing term: the
shadowed loss adds a zero-mean Gaussian dB-domain variable of standard
deviation sigma on top of the deterministic loss. One model serves both
protocol frequencies; shadowing draws are independent per (round, link,
frequency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PathLossParams:
    pl0: float = 40.0  # dB at the reference distance
    gamma: float = 3.5  # path loss exponent
    d0: float = 1.0  # reference distance, meters

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not (math.isfinite(self.d0) and self.d0 > 0.0):
            raise ValueError(f"d0 must be > 0, got {self.d0}")


@dataclass(frozen=True)
class ShadowingParams:
    sigma: float = 8.0  # dB; sigma = 0 degenerates to the deterministic model

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class RssSample:
    value: float  # dBm

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"RSS must be finite, got {self.value}")


def path_loss_deterministic(d: float, p: PathLossParams) -> float:
    """PL(d) = pl0 + 10*gamma*log10(d/d0), in dB. Undefined below d0."""
    if d < p.d0:
        raise ValueError(f"distance {d} m below reference distance {p.d0} m")
    return p.pl0 + 10.0 * p.gamma * math.log10(d / p.d0)


def path_loss_shadowed(
    d: float, p: PathLossParams, s: ShadowingParams, rng: np.random.Generator
) -> float:
    """Deterministic loss plus one fresh Gaussian(0, sigma^2) dB draw.

    Consumes exactly one standard-normal draw from rng regardless of sigma,
    so seeded replay is independent of the shadowing level.
    """
    return path_loss_deterministic(d, p) + s.sigma * rng.standard_normal()


def rss(
    pt: float,
    d: float,
    p: PathLossParams,
    s: ShadowingParams,
    rng: np.random.Generator,
) -> RssSample:
    """Received signal strength: transmit power minus shadowed path loss."""
    return RssSample(value=pt - path_loss_shadowed(d, p, s, rng))


def delta_mean_pathloss(d_ae: float, d_be: float, gamma: float) -> float:
    """Mean path-loss difference PL(d_ae) - PL(d_be) in dB.

    Reference loss, reference distance, and transmit power all cancel;
    only the distance ratio and the exponent remain.
    """
    if not (d_ae > 0.0 and d_be > 0.0):
        raise ValueError(f"distances must be positive, got {d_ae}, {d_be}")
    return 10.0 * gamma * math.log10(d_ae / d_be)
