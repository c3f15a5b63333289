"""Monte-Carlo evaluation of static-hedge performance.

Terminal spots are lognormal under a physical drift; each draw yields one
true hedge error, and the run is summarized by the mean percentage error
(MHE), the mean absolute percentage error (MAE), and the currency RMSE.

Draws come from a counter-based generator (Philox) through the inverse
normal CDF, so a seed pins the full stream independently of platform and
path count ordering.  Runs that share seed, paths and hedge may differ in
spot, drift and scheme, and share the stream and every valuation that
does not depend on what differs (table t7); passed-in ``draws`` remain so
that tests can pin degenerate paths.

A run walks numpy's pairwise-summation tree over its paths (see
``_tree_sums``) and, at each leaf of at most ``_BLOCK`` paths in turn,
draws, moves, values and sums that leaf alone; the leaf sums are added
back up the tree in numpy's order.  The summaries are therefore the bits
``np.mean`` gives over full-length arrays, while peak memory stays
bounded by one leaf whatever the path count.  The leaf's arrays are
allocated once per run and every step writes into them, so the heap is
not trimmed and faulted back in between leaves.  Runs are capped at
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


def gbm_terminal(spot, drift, vol, horizon, z, *, out=None):
    """Lognormal terminal price S exp((mu - sigma^2/2) h + sigma sqrt(h) z).

    Given ``out``, a float array of the draws' shape, the prices are
    written into it and it is returned.
    """
    moved = np.multiply(vol * np.sqrt(horizon), z, out=out)
    moved = np.add((drift - 0.5 * vol**2) * horizon, moved, out=out)
    return np.multiply(spot, np.exp(moved, out=out), out=out)


def _philox(seed: int) -> np.random.Generator:
    if seed < 0:
        raise PricingError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


def normal_draws(source, count: int, *, out=None) -> np.ndarray:
    """Deterministic standard-normal draws from a seed or a generator.

    ``source`` is a non-negative seed, which starts a Philox stream, or a
    ``np.random.Generator`` that one started, which carries on: draws
    taken in pieces from one generator are the bits of one call for their
    total count.  Uniforms are taken as k / 2^53 with k in [1, 2^53), which
    keeps the inverse CDF finite on both tails.  The count must be in
    [1, ``MAX_PATHS``].  Given ``out``, a float array of that count, the
    draws are written into it and it is returned.
    """
    _require_paths(count)
    rng = source if isinstance(source, np.random.Generator) else _philox(source)
    uniforms = np.divide(rng.integers(1, 1 << 53, size=count), float(1 << 53), out=out)
    return ndtri(uniforms, out=out)


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
    return [0.0 + total for total in _tree(leaf_sums, 0, count)]


def _tree(leaf_sums, start, count):
    # module-level, so that no closure refers to itself and keeps
    # ``leaf_sums`` alive until the cyclic garbage collector runs
    if count <= _BLOCK:
        return leaf_sums(start, count)
    half = count // 2
    half -= half % 8
    left = _tree(leaf_sums, start, half)
    return [a + b for a, b in zip(left, _tree(leaf_sums, start + half, count - half))]


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

    The runs may differ in spot, drift and scheme.  They share one set of
    draws, one setup valuation per spot and one horizon valuation per
    (spot, drift), each for all the schemes in ``cfgs``: a (spot, drift)
    asked for fewer schemes pays a difference row and three sums per leaf
    for each other one.  Each summary, in input order, has the bits of its
    own run; no runs give ``()``.  Runs that differ in seed, paths or hedge
    raise ``ValueError``.
    """
    cfgs = tuple(cfgs)
    return _run(cfgs, draws) if cfgs else ()


def _run(cfgs, draws) -> tuple:
    """The leaf loop behind ``run_hedge_sim`` and ``run_hedge_sims``.

    Each valuation is keyed by what it depends on: a weight set by its
    scheme, a ``net_cost`` setup valuation by its spot, and a horizon
    valuation by its move, a distinct (spot, drift).  Each leaf draws its
    normals once, from the Philox stream or ``draws``; per move, it moves
    them with ``gbm_terminal``, values them with ``true_errors`` and sums,
    per weight set, the ratios of error to hedged-call price, their
    absolute values and the squared errors, which ``_tree_sums`` adds up.
    A run reads its sums at ``3 * (len(schemes) * move + scheme)``.  Every
    step writes into leaf-sized rows allocated once per run.
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
    schemes = list(dict.fromkeys(c.scheme for c in cfgs))
    weight_sets = [solve_weights(hedge, s) for s in schemes]
    spots0 = dict.fromkeys(c.spot for c in cfgs)
    costs = {s: [cost for cost, _ in net_cost(hedge, weight_sets, s)[0]] for s in spots0}
    moves = list(dict.fromkeys((c.spot, c.drift) for c in cfgs))

    # rows: the draws, the spots, then the valuation's (see hedge._valued)
    work = np.empty((7 + len(weight_sets), min(cfg.paths, _BLOCK)))

    def leaf_sums(start, count):
        drawn, spots, *valuation = work[:, :count]
        if draws is None:
            leaf = normal_draws(rng, count, out=drawn)
        else:
            leaf = z[start : start + count]
        sums = []
        for spot, drift in moves:
            with np.errstate(over="ignore"):  # true_errors rejects the inf spots
                gbm_terminal(spot, drift, hedge.vol, hedge.horizon, leaf, out=spots)
            errors, target = true_errors(hedge, weight_sets, costs[spot], spots, valuation)
            with np.errstate(all="ignore"):  # a summary out of the float range raises below
                for err in errors:
                    # the spots are valued, so their row takes the ratios
                    ratios = np.divide(err, target, out=spots)
                    sums += [
                        float(np.add.reduce(ratios)),
                        float(np.add.reduce(np.abs(ratios, out=ratios))),
                        float(np.add.reduce(np.square(err, out=err))),
                    ]
        return sums

    means = [total / cfg.paths for total in _tree_sums(leaf_sums, cfg.paths)]
    summaries = []
    for c in cfgs:
        k = 3 * (len(schemes) * moves.index((c.spot, c.drift)) + schemes.index(c.scheme))
        mhe, mae, rmse = 100.0 * means[k], 100.0 * means[k + 1], math.sqrt(means[k + 2])
        if not all(map(math.isfinite, (mhe, mae, rmse))):
            raise PricingError(f"simulated hedge errors leave the float range (spot {c.spot:g})")
        summaries.append(SimSummary(mhe_pct=mhe, mae_pct=mae, rmse=rmse, paths=cfg.paths))
    return tuple(summaries)
