"""Recombining binomial-tree pricing of American and European options.

Tree Greeks are read off the step-1 and step-2 nodes and quoted at time 0,
which is the convention the rest of the package validates against.  One
backward induction gives all the nodes that price, delta and gamma need,
so ``lattice_valuation`` returns the three together.  The induction runs
in the numpy kernel ``_crr_numpy``.

The last induction is memoized, keyed on the kernel's eight arguments, so
price, delta and gamma asked one after another of the same tree (directly,
or of the same dual tree) run one induction.  The memo holds one entry:
it serves only "the same tree again right away", and a report that values
distinct trees never hits it.  Trees are capped at ``MAX_STEPS`` steps,
because induction work grows with the square of the step count.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from . import _crr_numpy as _kernel
from .analytic import ExerciseStyle, MarketState, OptionRight, OptionSpec
from .errors import NoArbitrageError, PricingError

BACKEND = _kernel.NAME

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
    "lattice_valuation",
    "lattice_delta",
    "lattice_gamma",
]


@dataclass(frozen=True)
class LatticeParams:
    """Per-step tree parameters: u d = 1 and d < e^{(r-q) dt} < u."""

    steps: int
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
        raise NoArbitrageError(
            f"no-arbitrage violation: e^((r-q) dt) = {growth:.6f} outside "
            f"(d, u) = ({down:.6f}, {up:.6f}); vol too small for |r-q| at this dt"
        )
    prob_up = (growth - down) / (up - down)
    return LatticeParams(steps, up, down, prob_up, dt)


@functools.lru_cache(maxsize=1)
def _nodes(*args):
    nodes = _kernel.induct(*args)
    steps = args[5]
    # Greeks read the step-1 and step-2 nodes; a one-step tree has no step 2.
    used = nodes if steps >= 2 else nodes[:3]
    if not all(map(math.isfinite, used)):
        raise PricingError(f"tree values leave the float range at {steps} steps")
    return nodes


def _induct(spec: OptionSpec, mkt: MarketState, params: LatticeParams):
    discount = math.exp(-mkt.rate * params.dt)
    return _nodes(
        mkt.spot,
        spec.strike,
        params.up,
        params.prob_up,
        discount,
        params.steps,
        spec.right is OptionRight.CALL,
        spec.style is ExerciseStyle.AMERICAN,
    )


def lattice_price(spec: OptionSpec, mkt: MarketState, steps: int) -> float:
    """Tree price by backward induction; American compares hold to intrinsic."""
    return _induct(spec, mkt, build_lattice(mkt, spec.maturity, steps))[0]


def lattice_valuation(
    spec: OptionSpec, mkt: MarketState, steps: int
) -> tuple[float, float, float]:
    """Price, delta and gamma from one induction.

    Delta is the first difference of the two step-1 node values; gamma is
    the central second difference of the three step-2 node values.  Greeks
    that leave the float range raise ``PricingError``.
    """
    if steps < 2:
        raise PricingError(f"tree Greeks need steps >= 2, got {steps}")
    params = build_lattice(mkt, spec.maturity, steps)
    v00, v10, v11, v20, v21, v22 = _induct(spec, mkt, params)
    delta = (v11 - v10) / (mkt.spot * params.up - mkt.spot * params.down)
    s_up = mkt.spot * params.up**2
    s_dn = mkt.spot * params.down**2
    slope_up = (v22 - v21) / (s_up - mkt.spot)
    slope_dn = (v21 - v20) / (mkt.spot - s_dn)
    gamma = (slope_up - slope_dn) / (0.5 * (s_up - s_dn))
    if not (math.isfinite(delta) and math.isfinite(gamma)):
        raise PricingError(f"tree Greeks leave the float range at {steps} steps")
    return v00, delta, gamma


def lattice_delta(spec: OptionSpec, mkt: MarketState, steps: int) -> float:
    """Tree delta, quoted at time 0; see ``lattice_valuation``."""
    return lattice_valuation(spec, mkt, steps)[1]


def lattice_gamma(spec: OptionSpec, mkt: MarketState, steps: int) -> float:
    """Tree gamma, quoted at time 0; see ``lattice_valuation``."""
    return lattice_valuation(spec, mkt, steps)[2]
