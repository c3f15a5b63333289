"""Monte-Carlo evaluation of static-hedge performance.

Terminal spots are lognormal under a physical drift; each draw yields one
true hedge error, and the run is summarized by the mean percentage error
(MHE), the mean absolute percentage error (MAE), and the currency RMSE.

Draws come from a counter-based generator (Philox) through the inverse
normal CDF, so a seed pins the full stream independently of platform and
path count ordering.  Runs that share seed, paths and hedge may differ in
spot, drift and scheme and share one pass over that stream (table t7);
passed-in ``draws`` remain so that tests can pin degenerate paths.

A run walks numpy's pairwise-summation tree over its paths (see
``_tree_sums``) and, at each leaf of at most ``_BLOCK`` paths in turn,
draws, moves, values and sums that leaf alone; the leaf sums are added
back up the tree in numpy's order.  The summaries are therefore the bits
``np.mean`` gives over full-length arrays, while peak memory stays
bounded by one leaf whatever the path count.  Runs are capped at
``MAX_PATHS`` paths.  A summary out of the float range raises
``PricingError``, checked on its three values, not per path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import PricingError
from .hedge import HedgeConfig, HedgeScheme, net_cost, solve_weights, true_errors

__all__ = [
    "MAX_PATHS",
    "SimConfig",
    "SimSummary",
    "gbm_terminal",
    "normal_draws",
    "run_hedge_sim",
    "run_hedge_sims",
]

# Ten times the largest run in the repo; it bounds a run's time, not its memory.
MAX_PATHS = 10_000_000
# Most paths in one leaf of a run: 128 KiB per float64 array, so a leaf's
# temporaries stay in a core's L2 cache.
_BLOCK = 1 << 14


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


def _philox(seed: int) -> np.random.Generator:
    if seed < 0:
        raise PricingError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


def normal_draws(source, count: int) -> np.ndarray:
    """Deterministic standard-normal draws from a seed or a generator.

    ``source`` is a non-negative seed, which starts a Philox stream, or a
    ``np.random.Generator`` that one started, which carries on: draws
    taken in pieces from one generator are the bits of one call for their
    total count.  Uniforms are taken as k / 2^53 with k in [1, 2^53), which
    keeps the inverse CDF finite on both tails.  The count must be in
    [1, ``MAX_PATHS``].
    """
    _require_paths(count)
    rng = source if isinstance(source, np.random.Generator) else _philox(source)
    uniforms = rng.integers(1, 1 << 53, size=count) / float(1 << 53)
    return ndtri(uniforms)


def _tree_sums(leaf_sums, count: int) -> list:
    """Sums over the indices [0, count), added in ``np.add.reduce``'s order.

    numpy sums a contiguous float64 array pairwise: a stretch longer than
    128 splits at ``half - half % 8`` (``half = n // 2``) and adds the sum
    of its left part to that of its right (Higham, SIAM J. Sci. Comput.
    1993), and the reduction adds its result to the identity 0.0.  This
    walks the same tree down to leaves of at most ``_BLOCK`` indices, in
    index order, calls ``leaf_sums(start, count)`` once per leaf for a list
    of sums each taken with ``np.add.reduce``, and adds those lists back up
    the tree.  Each sum therefore has the bits ``np.add.reduce`` gives over
    the whole index range, and only one leaf is ever alive.
    """

    def tree(start, count):
        if count <= _BLOCK:
            return leaf_sums(start, count)
        half = count // 2
        half -= half % 8
        left = tree(start, half)
        return [a + b for a, b in zip(left, tree(start + half, count - half))]

    return [0.0 + total for total in tree(0, count)]


def run_hedge_sim(cfg: SimConfig, draws=None) -> SimSummary:
    """Simulate true hedge errors and aggregate them.

    ``draws`` overrides the seeded normal draws (length must equal
    ``cfg.paths``) and is never written to; tests pass it to pin
    degenerate paths.  Terminal spots that ``hedge.true_errors`` rejects,
    and a summary out of the float range, raise ``PricingError``.
    """
    (summary,) = _run((cfg,), draws)
    return summary


def run_hedge_sims(cfgs, draws=None) -> tuple:
    """``run_hedge_sim`` for runs that share seed, paths and hedge.

    The runs may differ in spot, drift and scheme; they share one set of
    draws, and runs with the same spot and drift one horizon valuation.
    Each summary, in input order, has the bits of its own run.  Runs that
    differ in seed, paths or hedge raise ``ValueError``.
    """
    return _run(tuple(cfgs), draws)


def _run(cfgs, draws) -> tuple:
    """The leaf loop behind ``run_hedge_sim`` and ``run_hedge_sims``.

    Each leaf draws its normals once, from the run's one Philox stream or
    from ``draws``.  Per distinct (spot, drift) it moves them with
    ``gbm_terminal``, values them once with ``true_errors`` for the group's
    schemes and sums the ratios of error to hedged-call price, their
    absolute values and the squared errors, which ``_tree_sums`` adds up.
    Private, so that a traced run charges its time to the public entry.
    """
    cfg = cfgs[0]
    if any((c.seed, c.paths, c.hedge) != (cfg.seed, cfg.paths, cfg.hedge) for c in cfgs):
        raise ValueError("runs that share paths must share seed, paths and hedge")
    hedge = cfg.hedge
    if draws is None:
        rng = _philox(cfg.seed)
    else:
        z = np.asarray(draws, dtype=float)
        if z.shape != (cfg.paths,):
            raise PricingError(f"draws must have shape ({cfg.paths},), got {z.shape}")
    weights = {s: solve_weights(hedge, s) for s in dict.fromkeys(c.scheme for c in cfgs)}
    groups = {}  # (spot, drift) -> (indices into cfgs, weight sets, setup costs)
    for k, c in enumerate(cfgs):
        ks, weight_sets, costs = groups.setdefault((c.spot, c.drift), ([], [], []))
        ks.append(k)
        weight_sets.append(weights[c.scheme])
        costs.append(net_cost(hedge, weights[c.scheme], c.spot)[0])

    def leaf_sums(start, count):
        leaf = normal_draws(rng, count) if draws is None else z[start : start + count]
        sums = []
        for (spot, drift), (_, weight_sets, costs) in groups.items():
            with np.errstate(over="ignore"):  # true_errors rejects the inf spots
                spots = gbm_terminal(spot, drift, hedge.vol, hedge.horizon, leaf)
            errors, target = true_errors(hedge, weight_sets, costs, spots)
            with np.errstate(all="ignore"):  # a summary out of the float range raises below
                for err in errors:
                    ratios = np.divide(err, target)
                    sums += [
                        float(np.add.reduce(ratios)),
                        float(np.add.reduce(np.abs(ratios, out=ratios))),
                        float(np.add.reduce(np.square(err, out=err))),
                    ]
        return sums

    means = iter([total / cfg.paths for total in _tree_sums(leaf_sums, cfg.paths)])
    summaries = [None] * len(cfgs)
    for k in (k for ks, _, _ in groups.values() for k in ks):
        mhe, mae, rmse = 100.0 * next(means), 100.0 * next(means), math.sqrt(next(means))
        if not all(map(math.isfinite, (mhe, mae, rmse))):
            raise PricingError(
                f"simulated hedge errors leave the float range (spot {cfgs[k].spot:g})"
            )
        summaries[k] = SimSummary(mhe_pct=mhe, mae_pct=mae, rmse=rmse, paths=cfg.paths)
    return tuple(summaries)
