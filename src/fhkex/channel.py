"""Path loss and received signal strength models.

Log-distance path loss with an optional log-normal shadowing term: the
shadowed loss adds a zero-mean Gaussian dB-domain variable of standard
deviation sigma on top of the deterministic loss. One model serves both
protocol frequencies; shadowing draws are independent per (round, link,
frequency).
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import ScenarioConfig


def path_loss_deterministic(d: float, cfg: ScenarioConfig) -> float:
    """PL(d) = pl0 + 10*gamma*log10(d/d0), in dB. Undefined below d0."""
    if d < cfg.d0:
        raise ValueError(f"distance {d} m below reference distance {cfg.d0} m")
    return cfg.pl0 + 10.0 * cfg.gamma * math.log10(d / cfg.d0)


def rss(d: float, cfg: ScenarioConfig, rng: np.random.Generator) -> float:
    """Received signal strength in dBm: pt less the deterministic loss and one
    fresh Gaussian(0, sigma^2) dB draw, its shadowing. Consumes exactly one
    standard-normal draw from rng regardless of sigma, so seeded replay is
    independent of the shadowing level.
    """
    return cfg.pt - (path_loss_deterministic(d, cfg) + cfg.sigma * rng.standard_normal())


def delta_mean_pathloss(d_ae: float, d_be: float, gamma: float) -> float:
    """Mean path-loss difference PL(d_ae) - PL(d_be) in dB.

    Reference loss, reference distance, and transmit power all cancel;
    only the distance ratio and the exponent remain.
    """
    if not (d_ae > 0.0 and d_be > 0.0):
        raise ValueError(f"distances must be positive, got {d_ae}, {d_be}")
    return 10.0 * gamma * math.log10(d_ae / d_be)
