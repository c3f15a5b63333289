"""Closed-form European option pricing and Greeks.

The model is Black-Scholes-Merton with a continuous dividend yield.  For
currency options the yield slot carries the foreign rate, which makes the
same formulas the Garman-Kohlhagen prices.  Array inputs broadcast through
``call_price``/``put_price``; the ``bsm_*`` wrappers are the typed scalar
front end used by the engines.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import PricingError, UnsupportedStyleError

__all__ = [
    "OptionRight",
    "ExerciseStyle",
    "MarketState",
    "OptionSpec",
    "D1D2",
    "d1_d2",
    "call_price",
    "put_price",
    "bsm_price",
    "bsm_delta",
    "bsm_gamma",
]


class OptionRight(enum.Enum):
    CALL = "call"
    PUT = "put"


class ExerciseStyle(enum.Enum):
    EUROPEAN = "european"
    AMERICAN = "american"


def _require_finite_positive(obj, names):
    for name in names:
        value = getattr(obj, name)
        if not (value > 0 and math.isfinite(value)):
            raise PricingError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class MarketState:
    """Spot, rates, and volatility seen by one pricing call.

    ``dividend_yield`` doubles as the foreign rate for currency options.
    Rates may be zero or negative; spot and volatility must be positive.
    All four must be finite.
    """

    spot: float
    rate: float
    dividend_yield: float
    vol: float

    def __post_init__(self):
        _require_finite_positive(self, ("spot", "vol"))
        for name in ("rate", "dividend_yield"):
            if not math.isfinite(getattr(self, name)):
                raise PricingError(f"{name} must be finite")


@dataclass(frozen=True)
class OptionSpec:
    """Contract terms: right, exercise style, strike, and maturity in years."""

    right: OptionRight
    style: ExerciseStyle
    strike: float
    maturity: float

    def __post_init__(self):
        _require_finite_positive(self, ("strike", "maturity"))


@dataclass(frozen=True)
class D1D2:
    d1: float
    d2: float


def d1_d2(mkt: MarketState, strike: float, maturity: float) -> D1D2:
    """Standard normal arguments of the closed-form price.

    d1 = [ln(S/K) + (r - q + sigma^2/2) T] / (sigma sqrt(T)), d2 = d1 - sigma sqrt(T).
    """
    if not maturity > 0:
        raise PricingError(f"maturity must be positive, got {maturity}")
    if not strike > 0:
        raise PricingError(f"strike must be positive, got {strike}")
    sig_sqrt_t = mkt.vol * math.sqrt(maturity)
    d1 = (
        math.log(mkt.spot / strike)
        + (mkt.rate - mkt.dividend_yield + 0.5 * mkt.vol**2) * maturity
    ) / sig_sqrt_t
    return D1D2(d1, d1 - sig_sqrt_t)


def _d1(spot, strike, rate, dividend_yield, vol, maturity):
    sig_sqrt_t = vol * np.sqrt(maturity)
    return (
        np.log(spot / strike) + (rate - dividend_yield + 0.5 * vol**2) * maturity
    ) / sig_sqrt_t


def call_price(spot, strike, rate, dividend_yield, vol, maturity):
    """European call value; broadcasts over array arguments."""
    d1 = _d1(spot, strike, rate, dividend_yield, vol, maturity)
    d2 = d1 - vol * np.sqrt(maturity)
    return spot * np.exp(-dividend_yield * maturity) * ndtr(d1) - strike * np.exp(
        -rate * maturity
    ) * ndtr(d2)


def put_price(spot, strike, rate, dividend_yield, vol, maturity):
    """European put value; broadcasts over array arguments."""
    d1 = _d1(spot, strike, rate, dividend_yield, vol, maturity)
    d2 = d1 - vol * np.sqrt(maturity)
    return strike * np.exp(-rate * maturity) * ndtr(-d2) - spot * np.exp(
        -dividend_yield * maturity
    ) * ndtr(-d1)


def _require_european(spec: OptionSpec, what: str):
    if spec.style is not ExerciseStyle.EUROPEAN:
        raise UnsupportedStyleError(
            f"{what} is closed-form European only, got {spec.style.value}"
        )


def bsm_price(spec: OptionSpec, mkt: MarketState) -> float:
    """Closed-form price of a European option."""
    _require_european(spec, "bsm_price")
    args = (mkt.spot, spec.strike, mkt.rate, mkt.dividend_yield, mkt.vol, spec.maturity)
    if spec.right is OptionRight.CALL:
        return float(call_price(*args))
    return float(put_price(*args))


def bsm_delta(spec: OptionSpec, mkt: MarketState) -> float:
    """Closed-form spot delta: e^{-qT} N(d1) for calls, -e^{-qT} N(-d1) for puts."""
    _require_european(spec, "bsm_delta")
    d = d1_d2(mkt, spec.strike, spec.maturity)
    decay = math.exp(-mkt.dividend_yield * spec.maturity)
    if spec.right is OptionRight.CALL:
        return decay * ndtr(d.d1)
    return -decay * ndtr(-d.d1)


def bsm_gamma(spec: OptionSpec, mkt: MarketState) -> float:
    """Closed-form gamma e^{-qT} n(d1) / (S sigma sqrt(T)); same for both rights."""
    _require_european(spec, "bsm_gamma")
    d = d1_d2(mkt, spec.strike, spec.maturity)
    try:
        density = math.exp(-0.5 * d.d1**2) / math.sqrt(2.0 * math.pi)
    except OverflowError:
        density = 0.0  # d1**2 beyond the float range: exp underflows to 0
    return (
        math.exp(-mkt.dividend_yield * spec.maturity)
        * density
        / (mkt.spot * mkt.vol * math.sqrt(spec.maturity))
    )
