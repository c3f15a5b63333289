"""Recombining binomial-tree pricing of American and European options.

Tree Greeks are read off the step-1 and step-2 nodes and quoted at time 0,
which is the convention the rest of the package validates against.  One
backward induction gives all the nodes that price, delta and gamma need,
so a valuation returns the three together.  The induction runs in the
numpy kernel ``_crr_numpy``.

``lattice_prices`` and ``lattice_valuations`` value many (spec, market)
pairs at one step count.  Trees that share their up factor, steps and
style form one group, whatever their spot, strike, right, up-probability
and step discount, and each group is one kernel call over the tuples of
those per-tree values.  The up factor depends only on vol, maturity and
steps, so a put and the call on its swapped problem are one group, and so
are puts that differ only in their rates.  Each tree gets the bits it gets
alone.  ``lattice_price`` is the one-pair case of ``lattice_prices``.

The last kernel call is memoized, keyed on its eight arguments, and the
memo holds that call's tuple of per-tree node values.  So price, delta and
gamma asked one after another of the same tree (directly, or of the same
dual tree) run one induction, and so do two reports that value the same
trees one after the other (t1 and t2).  The memo holds one entry: it
serves only "the same trees again right away".  Trees are capped at
``MAX_STEPS`` steps, because induction work grows with the square of the
step count.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

from . import _crr_numpy as _kernel
from .analytic import ExerciseStyle, MarketState, OptionRight, OptionSpec
from .errors import PricingError

# The kernel's name; with lattice_delta/gamma, kept only for the benchmark.
BACKEND = "numpy"

# Ten times the largest tree any report or test uses (2,000 steps).
MAX_STEPS = 20_000

# Largest x with e^x finite.
_LOG_MAX = math.log(sys.float_info.max)

__all__ = [
    "BACKEND",
    "MAX_STEPS",
    "LatticeParams",
    "build_lattice",
    "lattice_price",
    "lattice_prices",
    "lattice_valuations",
    "lattice_delta",
    "lattice_gamma",
]


@dataclass(frozen=True)
class LatticeParams:
    """Per-step tree parameters: u d = 1 and d < e^{(r-q) dt} < u."""

    up: float
    down: float
    prob_up: float
    dt: float


def build_lattice(mkt: MarketState, maturity: float, steps: int) -> LatticeParams:
    """Size the tree: dt = T/steps, u = e^{sigma sqrt(dt)}, d = 1/u.

    The risk-neutral up-probability is (e^{(r-q) dt} - d)/(u - d); it must
    land strictly inside (0, 1) or the step admits arbitrage.  Steps must
    lie in [1, MAX_STEPS], and the top node S u^N = S e^{sigma sqrt(T N)}
    and the step discount e^{-r dt} must be finite.  A discount that
    compounds beyond the float range is caught where the tree values are
    read.
    """
    if steps < 1:
        raise PricingError(f"steps must be >= 1, got {steps}")
    if steps > MAX_STEPS:
        raise PricingError(f"steps must be <= {MAX_STEPS}, got {steps}")
    if not maturity > 0:
        raise PricingError(f"maturity must be positive, got {maturity}")
    spread = mkt.vol * math.sqrt(maturity * steps)
    if not max(math.log(mkt.spot), 0.0) + spread < _LOG_MAX:
        raise PricingError(
            f"tree overflows: top node spot e^(vol sqrt(T steps)) = "
            f"{mkt.spot:g} e^{spread:.6g} is beyond the float range"
        )
    dt = maturity / steps
    if not -mkt.rate * dt < _LOG_MAX:
        raise PricingError(
            f"tree step discount e^(-rate dt) leaves the float range: rate "
            f"{mkt.rate:g}, dt {dt:g}"
        )
    up = math.exp(mkt.vol * math.sqrt(dt))
    down = 1.0 / up
    drift = (mkt.rate - mkt.dividend_yield) * dt
    # e^drift overflows only where it far exceeds u: an arbitrage step.
    growth = math.exp(drift) if drift < _LOG_MAX else math.inf
    if not down < growth < up:
        raise PricingError(
            f"no-arbitrage violation: e^((r-q) dt) = {growth:.6f} outside "
            f"(d, u) = ({down:.6f}, {up:.6f}); vol too small for |r-q| at this dt"
        )
    prob_up = (growth - down) / (up - down)
    return LatticeParams(up, down, prob_up, dt)


@functools.lru_cache(maxsize=1)
def _nodes(spots, strikes, up, prob_ups, discounts, steps, is_calls, american):
    trees = _kernel.induct(spots, strikes, up, prob_ups, discounts, steps, is_calls, american)
    # Greeks read the step-1 and step-2 nodes, but the root alone is checked:
    # a node is discount * (p * up + (1 - p) * down), every factor >= 0, so
    # an inf or NaN node leaves each node it feeds inf or NaN (0 * inf is
    # NaN), and np.maximum passes NaN on.
    for spot, strike, is_call, nodes in zip(spots, strikes, is_calls, trees):
        if not math.isfinite(nodes[0]):
            raise PricingError(
                f"{'call' if is_call else 'put'} tree values leave the float range at "
                f"{steps} steps (spot {spot:g}, strike {strike:g})"
            )
    return trees


def _induct(pairs: Sequence[tuple[OptionSpec, MarketState]], steps: int):
    """Each pair's tree parameters and six node values, in input order.

    Trees are grouped by up factor and style, and each group is one
    kernel call, made through the memo.
    """
    groups = {}
    where = []
    for spec, mkt in pairs:
        params = build_lattice(mkt, spec.maturity, steps)
        key = (params.up, spec.style is ExerciseStyle.AMERICAN)
        members = groups.setdefault(key, [])
        where.append((params, key, len(members)))
        members.append(
            (
                mkt.spot,
                spec.strike,
                params.prob_up,
                math.exp(-mkt.rate * params.dt),
                spec.right is OptionRight.CALL,
            )
        )
    nodes = {}
    for (up, american), members in groups.items():
        spots, strikes, prob_ups, discounts, is_calls = zip(*members)
        nodes[up, american] = _nodes(
            spots, strikes, up, prob_ups, discounts, steps, is_calls, american
        )
    return [(params, nodes[key][index]) for params, key, index in where]


def lattice_prices(
    pairs: Sequence[tuple[OptionSpec, MarketState]], steps: int
) -> list[float]:
    """Tree prices of a sequence of (spec, market) pairs, in input order.

    American trees compare hold to intrinsic at every node.
    """
    return [nodes[0] for _, nodes in _induct(pairs, steps)]


def lattice_price(spec: OptionSpec, mkt: MarketState, steps: int) -> float:
    """Tree price of one option; see ``lattice_prices``."""
    return lattice_prices([(spec, mkt)], steps)[0]


def lattice_valuations(
    pairs: Sequence[tuple[OptionSpec, MarketState]], steps: int
) -> list[tuple[float, float, float]]:
    """Price, delta and gamma of each (spec, market) pair, in input order.

    Delta is the first difference of the two step-1 node values; gamma is
    the central second difference of the three step-2 node values.  A node
    spacing they divide by that is not a normal float (a subnormal spot)
    and Greeks that leave the float range raise ``PricingError``.
    """
    if steps < 2:
        raise PricingError(f"tree Greeks need steps >= 2, got {steps}")
    out = []
    for (spec, mkt), (params, nodes) in zip(pairs, _induct(pairs, steps)):
        v00, v10, v11, v20, v21, v22 = nodes
        s_up = mkt.spot * params.up**2
        s_dn = mkt.spot * params.down**2
        step1 = mkt.spot * params.up - mkt.spot * params.down
        # a subnormal spacing has lost its digits, or is 0
        if min(step1, s_up - mkt.spot, mkt.spot - s_dn) < sys.float_info.min:
            raise PricingError(
                f"{spec.right.value} tree node spacing is below the normal float range at {steps} "
                f"steps (spot {mkt.spot:g}, strike {spec.strike:g})"
            )
        delta = (v11 - v10) / step1
        slope_up = (v22 - v21) / (s_up - mkt.spot)
        slope_dn = (v21 - v20) / (mkt.spot - s_dn)
        gamma = (slope_up - slope_dn) / (0.5 * (s_up - s_dn))
        if not (math.isfinite(delta) and math.isfinite(gamma)):
            raise PricingError(
                f"{spec.right.value} tree Greeks leave the float range at {steps} steps "
                f"(spot {mkt.spot:g}, strike {spec.strike:g})"
            )
        out.append((v00, delta, gamma))
    return out


def lattice_delta(spec: OptionSpec, mkt: MarketState, steps: int) -> float:
    """Tree delta, quoted at time 0; see ``lattice_valuations``."""
    return lattice_valuations([(spec, mkt)], steps)[0][1]


def lattice_gamma(spec: OptionSpec, mkt: MarketState, steps: int) -> float:
    """Tree gamma, quoted at time 0; see ``lattice_valuations``."""
    return lattice_valuations([(spec, mkt)], steps)[0][2]
