"""Pricing through the swapped problem.

A put on spot S struck at K with rates (r, q) has the same value as a call
on "spot" K struck at S with rates (q, r); the swap also carries the
original strike sensitivity, so delta and gamma come back out of the
swapped problem with a scale factor.  Everything here is engine-agnostic:
any object with price/delta/gamma methods over (OptionSpec, MarketState),
plus a ``valuation`` method giving all three from one evaluation, works,
and both supplied engines are stateless.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from . import analytic
from .analytic import ExerciseStyle, MarketState, OptionRight, OptionSpec
from .errors import PricingError
from . import lattice

__all__ = [
    "DualProblem",
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


@dataclass(frozen=True)
class DualProblem:
    """The swapped twin of an option.

    The twin flips the right, exchanges spot with strike, and exchanges the
    rate with the dividend yield; style, volatility, and maturity carry over.
    Applying the construction twice returns the original problem.
    """

    dual: tuple[OptionSpec, MarketState]


_FLIP = {OptionRight.CALL: OptionRight.PUT, OptionRight.PUT: OptionRight.CALL}


def to_dual(spec: OptionSpec, mkt: MarketState) -> DualProblem:
    """Build the swapped problem for one option."""
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
    return DualProblem(dual=(dual_spec, dual_mkt))


class AnalyticEngine:
    """Closed-form European engine; rejects American style."""

    def price(self, spec: OptionSpec, mkt: MarketState) -> float:
        return analytic.bsm_price(spec, mkt)

    def delta(self, spec: OptionSpec, mkt: MarketState) -> float:
        return analytic.bsm_delta(spec, mkt)

    def gamma(self, spec: OptionSpec, mkt: MarketState) -> float:
        return analytic.bsm_gamma(spec, mkt)

    def valuation(self, spec: OptionSpec, mkt: MarketState) -> tuple[float, float, float]:
        return (
            analytic.bsm_price(spec, mkt),
            analytic.bsm_delta(spec, mkt),
            analytic.bsm_gamma(spec, mkt),
        )

    def __repr__(self):
        return "AnalyticEngine()"


@dataclass(frozen=True)
class LatticeEngine:
    """Binomial-tree engine; handles both exercise styles."""

    steps: int = 365

    def price(self, spec: OptionSpec, mkt: MarketState) -> float:
        return lattice.lattice_price(spec, mkt, self.steps)

    def delta(self, spec: OptionSpec, mkt: MarketState) -> float:
        return lattice.lattice_delta(spec, mkt, self.steps)

    def gamma(self, spec: OptionSpec, mkt: MarketState) -> float:
        return lattice.lattice_gamma(spec, mkt, self.steps)

    def valuation(self, spec: OptionSpec, mkt: MarketState) -> tuple[float, float, float]:
        return lattice.lattice_valuation(spec, mkt, self.steps)


def price_via_dual(spec: OptionSpec, mkt: MarketState, engine) -> float:
    """Price the swapped problem; equals the direct price."""
    dual_spec, dual_mkt = to_dual(spec, mkt).dual
    return engine.price(dual_spec, dual_mkt)


def from_dual_valuation(
    spec: OptionSpec, mkt: MarketState, dual_valuation: tuple[float, float, float]
) -> tuple[float, float, float]:
    """The original's (price, delta, gamma) from the swapped problem's.

    The swapped value V~ is the original price.  Its delta D~ (a strike
    sensitivity of the original) and gamma G~ give the spot Greeks as
    (V~ - K D~) / S and (K^2 / S^2) G~, with K, S the original strike and
    spot.
    """
    dual_price, dual_delta, dual_gamma = dual_valuation
    delta = (dual_price - spec.strike * dual_delta) / mkt.spot
    gamma = (spec.strike**2 / mkt.spot**2) * dual_gamma
    return dual_price, delta, gamma


def valuation_via_dual(
    spec: OptionSpec, mkt: MarketState, engine
) -> tuple[float, float, float]:
    """Price, delta and gamma from one valuation of the swapped problem."""
    dual_spec, dual_mkt = to_dual(spec, mkt).dual
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
