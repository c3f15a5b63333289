"""Monte-Carlo evaluation of static-hedge performance.

Terminal spots are lognormal under a physical drift; each draw yields one
true hedge error, and the run is summarized by the mean percentage error
(MHE), the mean absolute percentage error (MAE), and the currency RMSE.

Draws come from a counter-based generator (Philox) through the inverse
normal CDF, so a seed pins the full stream independently of platform and
path count ordering.

A run holds its draws only until the terminal spots exist, and
``hedge.true_errors`` values those spots in cache-sized blocks into two
result arrays, which the summary then overwrites in place.  Peak memory
is therefore about 24 bytes per path (the draws and two temporaries of
``gbm_terminal``, then the spots, errors and prices while valuing), and
the path count is capped at ``MAX_PATHS``.  A summary out of the float
range raises ``PricingError``, checked on its three values, not per path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import PricingError
from .hedge import HedgeConfig, HedgeScheme, solve_weights, true_errors

__all__ = [
    "MAX_PATHS",
    "SimConfig",
    "SimSummary",
    "gbm_terminal",
    "normal_draws",
    "run_hedge_sim",
]

# Ten times the largest run in the repo; about 240 MB of arrays at the peak.
MAX_PATHS = 10_000_000


def _require_paths(paths: int):
    if not 1 <= paths <= MAX_PATHS:
        raise PricingError(f"paths must be in [1, {MAX_PATHS}], got {paths}")


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: market start, drift, path count, seed, hedge."""

    spot: float
    drift: float
    paths: int
    seed: int
    hedge: HedgeConfig
    scheme: HedgeScheme

    def __post_init__(self):
        _require_paths(self.paths)
        if not (self.spot > 0 and math.isfinite(self.spot)):
            raise PricingError(f"spot must be positive and finite, got {self.spot}")
        if not math.isfinite(self.drift):
            raise PricingError(f"drift must be finite, got {self.drift}")


@dataclass(frozen=True)
class SimSummary:
    mhe_pct: float
    mae_pct: float
    rmse: float
    paths: int


def gbm_terminal(spot, drift, vol, horizon, z):
    """Lognormal terminal price S exp((mu - sigma^2/2) h + sigma sqrt(h) z)."""
    return spot * np.exp((drift - 0.5 * vol**2) * horizon + vol * np.sqrt(horizon) * z)


def normal_draws(seed: int, count: int) -> np.ndarray:
    """Deterministic standard-normal draws for a given seed.

    Uniforms are taken as k / 2^53 with k in [1, 2^53), which keeps the
    inverse CDF finite on both tails.  The seed must be non-negative and
    the count in [1, ``MAX_PATHS``].
    """
    _require_paths(count)
    if seed < 0:
        raise PricingError(f"seed must be non-negative, got {seed}")
    rng = np.random.Generator(np.random.Philox(seed))
    uniforms = rng.integers(1, 1 << 53, size=count) / float(1 << 53)
    return ndtri(uniforms)


def run_hedge_sim(cfg: SimConfig, draws=None) -> SimSummary:
    """Simulate true hedge errors and aggregate them.

    ``draws`` overrides the seeded normal draws (length must equal
    ``cfg.paths``); it exists for degenerate-path tests and for sharing
    one shock set across schemes, and is never written to.  Terminal
    spots that ``hedge.true_errors`` rejects, and a summary out of the
    float range, raise ``PricingError``.
    """
    if draws is None:
        z = normal_draws(cfg.seed, cfg.paths)
    else:
        z = np.asarray(draws, dtype=float)
        if z.shape != (cfg.paths,):
            raise PricingError(
                f"draws must have shape ({cfg.paths},), got {z.shape}"
            )
    weights = solve_weights(cfg.hedge, cfg.scheme)
    with np.errstate(over="ignore"):  # true_errors rejects the inf spots
        terminal = gbm_terminal(
            cfg.spot, cfg.drift, cfg.hedge.vol, cfg.hedge.horizon, z
        )
    del z  # free seeded draws before the valuation allocates its results
    errors, ratios = true_errors(cfg.hedge, weights, cfg.spot, terminal)
    del terminal
    with np.errstate(all="ignore"):  # a summary out of the float range raises below
        np.divide(errors, ratios, out=ratios)
        mhe = float(100.0 * np.mean(ratios))
        mae = float(100.0 * np.mean(np.abs(ratios, out=ratios)))
        rmse = float(np.sqrt(np.mean(np.square(errors, out=errors))))
    if not all(map(math.isfinite, (mhe, mae, rmse))):
        raise PricingError(
            f"simulated hedge errors leave the float range (spot {cfg.spot:g})"
        )
    return SimSummary(mhe_pct=mhe, mae_pct=mae, rmse=rmse, paths=cfg.paths)
