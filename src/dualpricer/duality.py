"""Pricing through the swapped problem.

A put on spot S struck at K with rates (r, q) has the same value as a call
on "spot" K struck at S with rates (q, r); ``to_dual`` builds that swapped
(spec, market) pair.  The swap also carries the original strike
sensitivity, so ``from_dual_valuation`` turns the swapped problem's price,
delta and gamma into the original's, and rejects a result that leaves the
float range.  Everything here is engine-agnostic: an engine is any object
whose ``price`` and ``valuation`` (price, delta and gamma from one
evaluation) take (OptionSpec, MarketState).  Both supplied engines are
stateless and also offer ``prices`` and ``valuations`` over a list of
(spec, market) pairs, of which ``price`` and ``valuation`` are the
one-pair case; the tree engine values such a list, a problem and its
swapped twin say, in one kernel call.  Their ``delta``/``gamma``, like
``delta_via_dual`` and ``gamma_via_dual``, index a valuation and stay only
for the benchmark.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from . import analytic
from .analytic import ExerciseStyle, MarketState, OptionRight, OptionSpec
from .errors import PricingError
from . import lattice

__all__ = [
    "to_dual",
    "AnalyticEngine",
    "LatticeEngine",
    "from_dual_valuation",
    "valuation_via_dual",
    "price_via_dual",
    "delta_via_dual",
    "gamma_via_dual",
    "Exactness",
    "price_currency_put_approx",
]


_FLIP = {OptionRight.CALL: OptionRight.PUT, OptionRight.PUT: OptionRight.CALL}


def to_dual(spec: OptionSpec, mkt: MarketState) -> tuple[OptionSpec, MarketState]:
    """The swapped twin of an option, as a (spec, market) pair.

    The twin flips the right, exchanges spot with strike, and exchanges the
    rate with the dividend yield; style, volatility, and maturity carry over.
    Applying the construction twice returns the original problem.
    """
    dual_spec = OptionSpec(
        right=_FLIP[spec.right],
        style=spec.style,
        strike=mkt.spot,
        maturity=spec.maturity,
    )
    dual_mkt = MarketState(
        spot=spec.strike,
        rate=mkt.dividend_yield,
        dividend_yield=mkt.rate,
        vol=mkt.vol,
    )
    return dual_spec, dual_mkt


@dataclass(frozen=True)
class AnalyticEngine:
    """Closed-form European engine; rejects American style."""

    def prices(self, pairs) -> list[float]:
        return [analytic.bsm_price(spec, mkt) for spec, mkt in pairs]

    def valuations(self, pairs) -> list[tuple[float, float, float]]:
        return [analytic.bsm_valuation(spec, mkt) for spec, mkt in pairs]

    def price(self, spec: OptionSpec, mkt: MarketState) -> float:
        return self.prices([(spec, mkt)])[0]

    def delta(self, spec: OptionSpec, mkt: MarketState) -> float:
        return self.valuation(spec, mkt)[1]

    def gamma(self, spec: OptionSpec, mkt: MarketState) -> float:
        return self.valuation(spec, mkt)[2]

    def valuation(self, spec: OptionSpec, mkt: MarketState) -> tuple[float, float, float]:
        return self.valuations([(spec, mkt)])[0]


@dataclass(frozen=True)
class LatticeEngine:
    """Binomial-tree engine; handles both exercise styles.

    ``prices`` and ``valuations`` value their pairs in one kernel call per
    group of trees that share up factor and style (see ``lattice``).
    """

    steps: int = 365

    def prices(self, pairs) -> list[float]:
        return lattice.lattice_prices(pairs, self.steps)

    def valuations(self, pairs) -> list[tuple[float, float, float]]:
        return lattice.lattice_valuations(pairs, self.steps)

    def price(self, spec: OptionSpec, mkt: MarketState) -> float:
        return self.prices([(spec, mkt)])[0]

    def delta(self, spec: OptionSpec, mkt: MarketState) -> float:
        return self.valuation(spec, mkt)[1]

    def gamma(self, spec: OptionSpec, mkt: MarketState) -> float:
        return self.valuation(spec, mkt)[2]

    def valuation(self, spec: OptionSpec, mkt: MarketState) -> tuple[float, float, float]:
        return self.valuations([(spec, mkt)])[0]


def price_via_dual(spec: OptionSpec, mkt: MarketState, engine) -> float:
    """Price the swapped problem; equals the direct price."""
    dual_spec, dual_mkt = to_dual(spec, mkt)
    return engine.price(dual_spec, dual_mkt)


def from_dual_valuation(
    spec: OptionSpec, mkt: MarketState, dual_valuation: tuple[float, float, float]
) -> tuple[float, float, float]:
    """The original's (price, delta, gamma) from the swapped problem's.

    The swapped value V~ is the original price.  Its delta D~ (a strike
    sensitivity of the original) and gamma G~ give the spot Greeks as
    (V~ - K D~) / S and (K^2 / S^2) G~, with K, S the original strike and
    spot.  A result that is not finite raises ``PricingError``.
    """
    dual_price, dual_delta, dual_gamma = dual_valuation
    delta = (dual_price - spec.strike * dual_delta) / mkt.spot
    try:
        gamma = (spec.strike**2 / mkt.spot**2) * dual_gamma
    except (OverflowError, ZeroDivisionError):  # K^2 or S^2 out of the float range
        gamma = math.nan
    if not all(map(math.isfinite, (dual_price, delta, gamma))):
        raise PricingError(
            "Greeks recovered from the swapped problem leave the float range "
            f"(strike {spec.strike}, spot {mkt.spot})"
        )
    return dual_price, delta, gamma


def valuation_via_dual(
    spec: OptionSpec, mkt: MarketState, engine
) -> tuple[float, float, float]:
    """Price, delta and gamma from one valuation of the swapped problem."""
    dual_spec, dual_mkt = to_dual(spec, mkt)
    return from_dual_valuation(spec, mkt, engine.valuation(dual_spec, dual_mkt))


def delta_via_dual(spec: OptionSpec, mkt: MarketState, engine) -> float:
    """Spot delta recovered from the swapped problem: (V~ - K D~) / S."""
    return valuation_via_dual(spec, mkt, engine)[1]


def gamma_via_dual(spec: OptionSpec, mkt: MarketState, engine) -> float:
    """Gamma recovered from the swapped problem: (K^2 / S^2) G~."""
    return valuation_via_dual(spec, mkt, engine)[2]


class Exactness(enum.Enum):
    EXACT = "exact"
    APPROXIMATION = "approximation"


def price_currency_put_approx(
    spec: OptionSpec, mkt: MarketState
) -> tuple[float, Exactness]:
    """European closed form standing in for an American currency put.

    The dividend-yield slot is read as the foreign rate.  With a domestic
    rate that is not positive and a foreign rate that is not negative,
    early exercise of the put is never optimal and the closed form is the
    exact American value; otherwise it is a lower approximation whose gap
    grows with the domestic rate.
    """
    if spec.style is not ExerciseStyle.AMERICAN or spec.right is not OptionRight.PUT:
        raise PricingError(
            "price_currency_put_approx prices American puts only, got "
            f"{spec.style.value} {spec.right.value}"
        )
    european = replace(spec, style=ExerciseStyle.EUROPEAN)
    price = analytic.bsm_price(european, mkt)
    exact = mkt.rate <= 0 <= mkt.dividend_yield
    return price, Exactness.EXACT if exact else Exactness.APPROXIMATION
