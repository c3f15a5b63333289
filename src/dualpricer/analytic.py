"""Closed-form European option pricing and Greeks.

The model is Black-Scholes-Merton with a continuous dividend yield.  For
currency options the yield slot carries the foreign rate, which makes the
same formulas the Garman-Kohlhagen prices.  The closed form has two
entries: ``call_price`` values arrays of calls, and ``bsm_valuation``
gives the price, delta and gamma of one contract of either right; the
price or a Greek alone is an index into that valuation.  A put over
arrays is its dual call, put(S, K, r, q) = call(K, S, q, r).  Both take
d1 and d2 from one internal broadcasting step and price with one
expression per right.

The normal CDF is scipy's ``ndtr``, bit for bit, by two routes.  One
double, as ``bsm_valuation`` and the scalar hedge reports value it, goes
through ``_ndtr1``, a port of the same Cephes code that needs no scipy.
Anything else goes through ``scipy.special.ndtr``, which is imported on
the first such call, so that a tree or a single contract never loads
scipy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import PricingError, UnsupportedStyleError

__all__ = [
    "OptionRight",
    "ExerciseStyle",
    "MarketState",
    "OptionSpec",
    "call_price",
    "bsm_valuation",
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


def _d1_d2(spot, strike, rate, dividend_yield, vol, maturity, *, out=None, scratch=None):
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


_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # erfc(z) is taken as 0 where z^2 exceeds it


def _ndtr1(a):
    """scipy's ``ndtr`` of one double, bit for bit, without scipy.

    A port of the Cephes ``ndtr`` that scipy compiles (Moshier, *Methods
    and Programs for Mathematical Functions*, 1989): the same branches on
    z = |a|/sqrt(2) (below 1, below 8, and the underflow past
    sqrt(MAXLOG)), the same coefficients in the same Horner order, and
    ``math.exp``, the C library's ``exp`` that Cephes calls.  A vectorised
    port would not keep the bits, because ``np.exp`` differs from the C
    library's ``exp`` in the last place on some inputs.
    """
    x = float(a) * _SQRT1_2
    z = abs(x)
    if z < 1.0:  # (1 + erf(x)) / 2, with erf(x) = x T(x^2) / U(x^2)
        s = x * x
        t = ((((9.60497373987051638749e0 * s + 9.00260197203842689217e1) * s
               + 2.23200534594684319226e3) * s + 7.00332514112805075473e3) * s
             + 5.55923013010394962768e4)
        u = (((((s + 3.35617141647503099647e1) * s + 5.21357949780152679795e2) * s
               + 4.59432382970980127987e3) * s + 2.26290000613890934246e4) * s
             + 4.92673942608635921086e4)
        return 0.5 + 0.5 * (x * t / u)
    # y = erfc(z) = exp(-z^2) P(z) / Q(z) below 8, exp(-z^2) R(z) / S(z) above
    if z < 8.0:
        p = ((((((((2.46196981473530512524e-10 * z + 5.64189564831068821977e-1) * z
                   + 7.46321056442269912687e0) * z + 4.86371970985681366614e1) * z
                 + 1.96520832956077098242e2) * z + 5.26445194995477358631e2) * z
               + 9.34528527171957607540e2) * z + 1.02755188689515710272e3) * z
             + 5.57535335369399327526e2)
        q = ((((((((z + 1.32281951154744992508e1) * z + 8.67072140885989742329e1) * z
                  + 3.54937778887819891062e2) * z + 9.75708501743205489753e2) * z
                + 1.82390916687909736289e3) * z + 2.24633760818710981792e3) * z
              + 1.65666309194161350182e3) * z + 5.57535340817727675546e2)
        y = math.exp(-z * z) * p / q
    elif z * z <= _MAXLOG:
        p = (((((5.64189583547755073984e-1 * z + 1.27536670759978104416e0) * z
                + 5.01905042251180477414e0) * z + 6.16021097993053585195e0) * z
              + 7.40974269950448939160e0) * z + 2.97886665372100240670e0)
        q = ((((((z + 2.26052863220117276590e0) * z + 9.39603524938001434673e0) * z
                + 1.20489539808096656605e1) * z + 1.70814450747565897222e1) * z
              + 9.60896809063285878198e0) * z + 3.36907645100081516050e0)
        y = math.exp(-z * z) * p / q
    elif z > 8.0:  # infinity included
        y = 0.0
    else:
        return math.nan
    y *= 0.5
    return 1.0 - y if x > 0 else y


def _ndtr(*args, **kwargs):
    """``scipy.special.ndtr``, imported on the first call.

    The import rebinds this module's ``_ndtr`` to the ufunc, so each later
    call goes to it directly.
    """
    global _ndtr
    from scipy.special import ndtr as _ndtr

    return _ndtr(*args, **kwargs)


def _cdf_for(d):
    """The normal CDF routine for ``d``: the port for one double, as
    Python and numpy give it, else scipy's ufunc.  Both give the same bits."""
    return _ndtr1 if isinstance(d, float) else _ndtr


# Least d2 from which a call's N(d1) and N(d2) are taken as exactly 1.0.
# Only the buffered call_price skips, and it evaluates scipy's ufunc; the
# port gives the same bits.  For a > 0, ndtr(a) is 1 - erfc(a / sqrt 2) / 2.
# At a = 8.5 that tail is 9.5e-18, 5.9 times below 2^-54, half the spacing
# of the doubles just below 1.0, so the difference rounds to 1.0; ndtr
# first returns 1.0 near a = 8.2924.  d1 >= d2 holds in floats too, since
# fl(d1 - s) <= d1 for s = sigma sqrt(T) > 0, so the same elements skip
# both.  Puts evaluate ndtr(-d), which is never exactly 1.
_ONE_AT = 8.5


def _price(is_call, d1, d2, spot, strike, rate, dividend_yield, maturity):
    """One right's price from its d1 and d2; broadcasts.

    Each expression is written out, so its temporaries are freed as soon
    as they are used.  A put stays bond N(-d2) - forward N(-d1) rather
    than the negated call expression, which would turn a zero put into
    -0.0.
    """
    ndtr = _cdf_for(d1)  # d2 has d1's shape and type
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
    d1, d2 = _d1_d2(
        spot, strike, rate, dividend_yield, vol, maturity, out=out, scratch=scratch
    )
    if out is None:
        return _price(True, d1, d2, spot, strike, rate, dividend_yield, maturity)
    # np.max is NaN if any d2 is: then every element goes through ndtr
    if d2.size and np.max(d2) >= _ONE_AT:
        # nonzero takes no 0-d array, so index views of at least one axis
        view1, view2, view = np.atleast_1d(d1, d2, out)
        # gathered, not ndtr(..., where=): with scipy 1.17.1 and numpy 2.4.6
        # the masked ufunc wrote wrong values and corrupted the heap
        rest = np.nonzero(view2 < _ONE_AT)
        n1, n2 = _ndtr(view1[rest]), _ndtr(view2[rest])
        view2.fill(1.0)
        view2[rest] = n2
    else:
        view, rest, n1 = out, ..., _ndtr(d1)
        _ndtr(d2, out=d2)
    np.multiply(spot, np.exp(-dividend_yield * maturity), out=out)
    view[rest] *= n1
    np.multiply(strike * np.exp(-rate * maturity), d2, out=d2)
    return np.subtract(out, d2, out=out)


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
            d1, d2 = _d1_d2(spot, strike, rate, dividend_yield, mkt.vol, maturity)
        except OverflowError:  # vol**2 beyond the float range
            raise _out_of_range(spec, mkt) from None
        price = _price(is_call, d1, d2, spot, strike, rate, dividend_yield, maturity)
        decay = np.exp(-dividend_yield * maturity)
        delta = sign * decay * _cdf_for(d1)(sign * d1)
        density = np.exp(-0.5 * d1**2) / math.sqrt(2.0 * math.pi)
        gamma = decay * density / (spot * mkt.vol * math.sqrt(maturity))
    if not all(map(math.isfinite, (d1, price, delta, gamma))):
        raise _out_of_range(spec, mkt)
    return float(price), float(delta), float(gamma)
