"""Closed-form European option pricing and Greeks.

The model is Black-Scholes-Merton with a continuous dividend yield.  For
currency options the yield slot carries the foreign rate, which makes the
same formulas the Garman-Kohlhagen prices.  Every number comes from one
broadcasting ``d1_d2`` and one price expression per right:
``call_price``/``put_price`` evaluate it over arrays, and
``bsm_valuation`` gives the price, delta and gamma of one contract from a
single d1.  ``bsm_price`` is its price alone; a Greek is an index into the
valuation.
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
    "d1_d2",
    "call_price",
    "put_price",
    "bsm_valuation",
    "bsm_price",
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


def d1_d2(spot, strike, rate, dividend_yield, vol, maturity, *, out=None, scratch=None):
    """Standard normal arguments of the closed-form price; broadcasts.

    d1 = [ln(S/K) + (r - q + sigma^2/2) T] / (sigma sqrt(T)), d2 = d1 - sigma sqrt(T).
    Given ``out`` and ``scratch``, float arrays of the broadcast shape, d1 is
    written into ``out`` and d2 into ``scratch`` by the same operations.
    """
    sig_sqrt_t = vol * np.sqrt(maturity)
    if out is None:
        d1 = (
            np.log(spot / strike) + (rate - dividend_yield + 0.5 * vol**2) * maturity
        ) / sig_sqrt_t
        return d1, d1 - sig_sqrt_t
    d1 = np.log(np.divide(spot, strike, out=out), out=out)
    np.add(d1, (rate - dividend_yield + 0.5 * vol**2) * maturity, out=d1)
    np.divide(d1, sig_sqrt_t, out=d1)
    return d1, np.subtract(d1, sig_sqrt_t, out=scratch)


# Least d2 from which a call's N(d1) and N(d2) are taken as exactly 1.0.
# For a > 0, scipy's ndtr(a) is 1 - erfc(a / sqrt 2) / 2.  At a = 8.5 that
# tail is 9.5e-18, 5.9 times below 2^-54, half the spacing of the doubles
# just below 1.0, so the difference rounds to 1.0; ndtr first returns 1.0
# near a = 8.2924.  d1 >= d2 holds in floats too, since fl(d1 - s) <= d1
# for s = sigma sqrt(T) > 0, so the same elements skip both.  Puts evaluate
# ndtr(-d), which is never exactly 1.
_ONE_AT = 8.5


def _price(is_call, d1, d2, spot, strike, rate, dividend_yield, maturity):
    """One right's price from its d1 and d2; broadcasts.

    Each expression is written out, so its temporaries are freed as soon
    as they are used.  A put stays bond N(-d2) - forward N(-d1) rather
    than the negated call expression, which would turn a zero put into
    -0.0.
    """
    if is_call:
        return spot * np.exp(-dividend_yield * maturity) * ndtr(d1) - strike * np.exp(
            -rate * maturity
        ) * ndtr(d2)
    return strike * np.exp(-rate * maturity) * ndtr(-d2) - spot * np.exp(
        -dividend_yield * maturity
    ) * ndtr(-d1)


def call_price(
    spot, strike, rate, dividend_yield, vol, maturity, *, out=None, scratch=None
):
    """European call value; broadcasts over array arguments.

    Given ``out`` and ``scratch``, float arrays of the broadcast shape, ()
    included, that share no memory with the arguments, the value is
    written into ``out``, which is returned, and ``scratch`` is
    overwritten.  The bits are those of the call without them.  On that
    path, ``ndtr`` is evaluated only where d2 < ``_ONE_AT``; everywhere
    else N(d1) and N(d2) are 1.0, which is what ``ndtr`` returns there.
    """
    d1, d2 = d1_d2(
        spot, strike, rate, dividend_yield, vol, maturity, out=out, scratch=scratch
    )
    if out is None:
        return _price(True, d1, d2, spot, strike, rate, dividend_yield, maturity)
    # np.max is NaN if any d2 is: then every element goes through ndtr
    if d2.size and np.max(d2) >= _ONE_AT:
        # nonzero takes no 0-d array, so index views of at least one axis
        view1, view2, view = np.atleast_1d(d1, d2, out)
        rest = np.nonzero(view2 < _ONE_AT)
        n1, n2 = ndtr(view1[rest]), ndtr(view2[rest])
        view2.fill(1.0)
        view2[rest] = n2
    else:
        view, rest, n1 = out, ..., ndtr(d1)
        ndtr(d2, out=d2)
    np.multiply(spot, np.exp(-dividend_yield * maturity), out=out)
    view[rest] *= n1
    np.multiply(strike * np.exp(-rate * maturity), d2, out=d2)
    return np.subtract(out, d2, out=out)


def put_price(spot, strike, rate, dividend_yield, vol, maturity):
    """European put value; broadcasts over array arguments."""
    d1, d2 = d1_d2(spot, strike, rate, dividend_yield, vol, maturity)
    return _price(False, d1, d2, spot, strike, rate, dividend_yield, maturity)


def _out_of_range(spec: OptionSpec, mkt: MarketState) -> PricingError:
    return PricingError(
        f"closed form leaves the float range: strike {spec.strike:g}, "
        f"maturity {spec.maturity:g}, {mkt}"
    )


def bsm_valuation(spec: OptionSpec, mkt: MarketState) -> tuple[float, float, float]:
    """Price, delta and gamma of a European option from one d1.

    Delta is e^{-qT} N(d1) for calls and -e^{-qT} N(-d1) for puts; gamma is
    e^{-qT} n(d1) / (S sigma sqrt(T)) for both.  Inputs whose d1 or values
    leave the float range raise ``PricingError``; a d1 so large that n(d1)
    underflows gives gamma 0.
    """
    if spec.style is not ExerciseStyle.EUROPEAN:
        raise UnsupportedStyleError(
            f"closed form is European only, got {spec.style.value}"
        )
    is_call = spec.right is OptionRight.CALL
    sign = 1.0 if is_call else -1.0
    spot, strike, maturity = mkt.spot, spec.strike, spec.maturity
    rate, dividend_yield = mkt.rate, mkt.dividend_yield
    with np.errstate(all="ignore"):
        try:
            d1, d2 = d1_d2(spot, strike, rate, dividend_yield, mkt.vol, maturity)
        except OverflowError:  # vol**2 beyond the float range
            raise _out_of_range(spec, mkt) from None
        price = _price(is_call, d1, d2, spot, strike, rate, dividend_yield, maturity)
        decay = np.exp(-dividend_yield * maturity)
        delta = sign * decay * ndtr(sign * d1)
        density = np.exp(-0.5 * d1**2) / math.sqrt(2.0 * math.pi)
        gamma = decay * density / (spot * mkt.vol * math.sqrt(maturity))
    if not all(map(math.isfinite, (d1, price, delta, gamma))):
        raise _out_of_range(spec, mkt)
    return float(price), float(delta), float(gamma)


def bsm_price(spec: OptionSpec, mkt: MarketState) -> float:
    """Closed-form price of a European option; see ``bsm_valuation``."""
    return bsm_valuation(spec, mkt)[0]
