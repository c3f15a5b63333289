"""Static replication of a call with three shorter-dated calls.

A target call (strike K, maturity T) is matched at an unwind time T_h by a
fixed portfolio of three calls: two "wing" strikes below and above K that
expire at one date, and a middle strike at another.  Matching the value,
the strike slope, and the maturity slope of the target at T_h gives a 3x3
linear system in the portfolio weights; its coefficients live in the
moneyness variable h = (K_x - K) / (sigma K sqrt(T - T_h)).

Two weighting schemes are supported: the full system ("bsm-dual"), and the
zero-rates variant ("wu-zhu") that additionally moves the unwind time to
the wing expiry, which is the published special case it degenerates to.
Every report takes a sequence of weight sets, values its spots, of any
shape, once for all of them through one checked valuation, and gives
percentages of the target call's price at the relevant time.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .analytic import call_price
from .errors import HedgeConstraintError, PricingError, SingularHedgeSystem

__all__ = [
    "HedgeScheme",
    "HedgeConfig",
    "HedgeCoefficients",
    "HedgeWeights",
    "HedgeReport",
    "dual_coefficients",
    "solve_weights",
    "gross_error",
    "net_cost",
    "true_error",
    "true_errors",
]


# Largest exponent whose math.exp is a float.
_LOG_MAX = math.log(sys.float_info.max)

# Least hedged-call price, per unit of strike, that a percentage divides by.
# Only a call worth less than eps K, the rounding unit of its strike, is
# rejected (about 1.1e-14 at K = 50).  Just above the floor the error's own
# rounding noise, about eps K, is still as large as the price.
_MIN_WORTH = sys.float_info.epsilon


class HedgeScheme(enum.Enum):
    BSM_DUAL = "bsm-dual"
    WU_ZHU = "wu-zhu"


@dataclass(frozen=True)
class HedgeConfig:
    """Target option, hedging strikes/maturities, and market parameters.

    ``wing_maturity`` is the expiry shared by the low and high strikes,
    ``mid_maturity`` the middle strike's expiry.  ``horizon`` may equal the
    nearest hedging expiry only for weight solving; valuation at the
    horizon requires it to be strictly earlier.
    """

    target_strike: float
    target_maturity: float
    strike_low: float
    strike_mid: float
    strike_high: float
    wing_maturity: float
    mid_maturity: float
    horizon: float
    vol: float
    rate: float
    dividend_yield: float

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise HedgeConstraintError(f"{field.name} must be finite, got {value}")
        if not (self.strike_low > 0 and self.target_strike > 0):
            raise HedgeConstraintError("strikes must be positive")
        if not self.strike_low < self.target_strike < self.strike_high:
            raise HedgeConstraintError(
                "strike ordering violated: need strike_low < target_strike "
                f"< strike_high, got {self.strike_low} / {self.target_strike} "
                f"/ {self.strike_high}"
            )
        if not self.strike_low <= self.strike_mid <= self.strike_high:
            raise HedgeConstraintError(
                "strike ordering violated: strike_mid must lie in "
                f"[{self.strike_low}, {self.strike_high}], got {self.strike_mid}"
            )
        if not 0 < self.horizon <= min(self.wing_maturity, self.mid_maturity):
            raise HedgeConstraintError(
                "maturity ordering violated: need 0 < horizon <= "
                f"min(wing, mid) maturity, got horizon {self.horizon} vs "
                f"({self.wing_maturity}, {self.mid_maturity})"
            )
        if not max(self.wing_maturity, self.mid_maturity) < self.target_maturity:
            raise HedgeConstraintError(
                "maturity ordering violated: hedging options must expire "
                f"before the target at {self.target_maturity}"
            )
        if not 0 < self.vol < math.sqrt(sys.float_info.max):
            raise HedgeConstraintError(
                f"vol must be positive with a finite square, got {self.vol}"
            )


class HedgeCoefficients(NamedTuple):
    h_low: float
    h_mid: float
    h_high: float
    alpha_wing: float
    alpha_mid: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class HedgeWeights:
    w_low: float
    w_mid: float
    w_high: float
    scheme: HedgeScheme
    determinant: float


@dataclass(frozen=True)
class HedgeReport:
    """Error accounting for one (setup spot, horizon spot) pair.

    ``true_error = gross_error - net_cost * e^{rate * horizon}`` holds by
    construction; percentages follow the hedged call's price at the
    matching time.
    """

    gross_error: float
    gross_error_pct: float
    net_cost: float
    net_cost_pct: float
    true_error: float
    true_error_pct: float


def _coefficients(
    cfg: HedgeConfig, rate: float, dividend_yield: float, horizon: float
) -> HedgeCoefficients:
    span = cfg.target_maturity - horizon
    root = math.sqrt(span)
    scale = cfg.vol * cfg.target_strike * root
    return HedgeCoefficients(
        h_low=(cfg.strike_low - cfg.target_strike) / scale,
        h_mid=(cfg.strike_mid - cfg.target_strike) / scale,
        h_high=(cfg.strike_high - cfg.target_strike) / scale,
        alpha_wing=(horizon - cfg.wing_maturity) / span,
        alpha_mid=(horizon - cfg.mid_maturity) / span,
        beta=(rate - dividend_yield) * root / cfg.vol,
        gamma=dividend_yield * span,
    )


def dual_coefficients(cfg: HedgeConfig) -> HedgeCoefficients:
    """Moneyness and drift coefficients of the full matching system.

    The alphas are negative because the hedging options outlive the
    horizon.
    """
    return _coefficients(cfg, cfg.rate, cfg.dividend_yield, cfg.horizon)


def _det3(m) -> float:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def solve_weights(cfg: HedgeConfig, scheme: HedgeScheme) -> HedgeWeights:
    """Solve the 3x3 matching system by Cramer's rule.

    Row 1 matches the target value, row 2 its strike slope, row 3 its
    maturity slope; the right-hand side is (1, 0, 1).  The wu-zhu scheme
    re-derives the coefficients with zero rate and yield and the unwind
    moved to the wing expiry, leaving the evaluation horizon untouched.
    """
    if scheme is HedgeScheme.WU_ZHU:
        co = _coefficients(cfg, 0.0, 0.0, cfg.wing_maturity)
    else:
        co = dual_coefficients(cfg)
    hs = (co.h_low, co.h_mid, co.h_high)
    alphas = (co.alpha_wing, co.alpha_mid, co.alpha_wing)
    try:
        matrix = [
            [1.0 + co.gamma * h**2 for h in hs],
            [(1.0 + co.beta * h) * h for h in hs],
            [h**2 - a for h, a in zip(hs, alphas)],
        ]
    except OverflowError:
        raise _overflow(hs) from None
    rhs = (1.0, 0.0, 1.0)
    det = _det3(matrix)
    if math.isinf(det):
        raise _overflow(hs)
    if not abs(det) >= 1e-12:
        raise SingularHedgeSystem(
            f"replication system is singular (determinant {det:.3e})", det
        )
    cols = []
    for k in range(3):
        replaced = [
            [rhs[i] if j == k else matrix[i][j] for j in range(3)] for i in range(3)
        ]
        cols.append(_det3(replaced) / det)
    if not all(map(math.isfinite, cols)):
        raise _overflow(hs)
    return HedgeWeights(cols[0], cols[1], cols[2], scheme, det)


def _overflow(hs) -> PricingError:
    return PricingError(
        "replication system overflows: strike moneyness up to "
        f"{max(map(abs, hs)):.3e} (vol too small for the strike spacing)"
    )


def _valued(cfg: HedgeConfig, weight_sets, spots, at_horizon: bool, work=None):
    """Portfolio minus target for each weight set, and the target, at spots
    of any shape.

    The three hedging calls and the target are valued once for all weight
    sets, and each set's difference is formed in the same operations, in
    the same order, as for that set alone.  The spots are at the horizon,
    which must come strictly before the nearest hedging expiry, or at
    setup.  Raises ``PricingError`` unless every spot is positive and
    finite (one min and one max when all are), every value is finite, and
    the hedged call is worth at least ``_MIN_WORTH`` of its strike at every
    spot: its price is the denominator of every error percentage.

    The values are written into ``work``, float arrays of the spots' shape:
    the four calls, a scratch array for ``call_price``, then at least one
    difference per weight set.  Without it, the calls are allocated by
    ``call_price`` and each difference gets a new array.
    """
    if at_horizon:
        if cfg.horizon >= min(cfg.wing_maturity, cfg.mid_maturity):
            raise HedgeConstraintError(
                "valuation needs the horizon strictly before the nearest "
                f"hedging expiry, got {cfg.horizon}"
            )
        when, now = "the horizon", cfg.horizon
    else:
        when, now = "setup", 0.0
    spots = np.asarray(spots)[()]  # a 0-d spot as a scalar, which prices faster
    if not (spots.min(initial=math.inf) > 0 and spots.max(initial=-math.inf) < math.inf):
        bad = spots[~((spots > 0) & (spots < math.inf))].flat[0]
        raise PricingError(f"spot at {when} must be positive and finite, got {bad}")
    if work is None:  # call_price and np.multiply allocate in place of None
        work = [None] * 5 + [np.empty(spots.shape) for _ in weight_sets]
    low, middle, high, target, scratch, *rows = work
    args = (cfg.rate, cfg.dividend_yield, cfg.vol)
    wing, mid = cfg.wing_maturity - now, cfg.mid_maturity - now
    diffs = rows[: len(weight_sets)]
    with np.errstate(all="ignore"):  # values out of the float range raise below
        low, middle, high, target = [
            call_price(spots, strike, *args, maturity, out=out, scratch=scratch)
            for out, strike, maturity in (
                (low, cfg.strike_low, wing),
                (middle, cfg.strike_mid, mid),
                (high, cfg.strike_high, wing),
                (target, cfg.target_strike, cfg.target_maturity - now),
            )
        ]
        for w, diff in zip(weight_sets, diffs, strict=True):
            np.multiply(w.w_low, low, out=diff)
            diff += np.multiply(w.w_mid, middle, out=scratch)
            diff += np.multiply(w.w_high, high, out=scratch)
            diff -= target
    # a target out of the float range makes its difference so too
    if not all(
        -math.inf < d.min(initial=math.inf) and d.max(initial=-math.inf) < math.inf
        for d in diffs
    ):
        raise PricingError(
            f"hedge values at {when} leave the float range: vol {cfg.vol:g}, "
            f"rate {cfg.rate:g}, yield {cfg.dividend_yield:g}"
        )
    worth = target.min(initial=math.inf)
    floor = _MIN_WORTH * cfg.target_strike
    if not worth >= floor:
        raise PricingError(
            f"hedged call is worth {worth:.3g}, below {floor:.3g}: no "
            "percentage of its price"
        )
    return diffs, target


def _less_carried(cfg: HedgeConfig, eps, cost, out):
    """``eps`` minus the setup cost compounded to the horizon, cost e^{r T_h}.

    The difference is written into the array ``out``.  Raises
    ``PricingError`` when the compounding or the difference leaves the
    float range; the exponent is checked before ``math.exp``.
    """
    growth = cfg.rate * cfg.horizon
    if growth < _LOG_MAX:
        with np.errstate(over="ignore"):
            err = np.subtract(eps, cost * math.exp(growth), out=out)
        if np.isfinite(err).all():
            return err
    raise PricingError(
        f"setup cost compounded to the horizon at rate {cfg.rate:g} leaves "
        "the float range"
    )


def _percentages(target, *amounts):
    """Each amount in percent of the hedged call's price ``target`` (> 0).

    Raises ``PricingError`` when a percentage leaves the float range: the
    hedged call is worth too little next to the amount.
    """
    with np.errstate(over="ignore"):
        shares = [100.0 * amount / target for amount in amounts]
    if not all(np.isfinite(share).all() for share in shares):
        raise PricingError(
            f"hedged call is worth {target.min():.3g}: its percentages "
            "leave the float range"
        )
    return shares


def gross_error(cfg: HedgeConfig, weight_sets, spot_at_horizon):
    """Portfolio minus target at the horizon, in currency and in percent.

    Returns (one (value, percent) pair per weight set, hedged-call prices
    at the horizon), all shaped like the spots; the prices are the
    percentage denominator.  The spots, of any shape, are valued once for
    all sets; see ``_valued`` for the spots and values that raise
    ``PricingError``.
    """
    diffs, target = _valued(cfg, weight_sets, spot_at_horizon, True)
    return list(zip(diffs, _percentages(target, *diffs))), target


def net_cost(cfg: HedgeConfig, weight_sets, spot_at_start):
    """Portfolio minus target at setup, in currency and in percent.

    Returns (one (value, percent) pair per weight set, hedged-call prices
    at setup), all shaped like the spots, as ``gross_error`` does.
    """
    diffs, target = _valued(cfg, weight_sets, spot_at_start, False)
    return list(zip(diffs, _percentages(target, *diffs))), target


def true_errors(cfg: HedgeConfig, weight_sets, costs, spots_at_horizon, work=None):
    """True errors of several weight sets at the same horizon spots.

    ``costs`` holds each set's net cost at setup, as ``net_cost`` gives
    it; each is compounded to the horizon at the risk-free rate and
    subtracted from that set's gross error.  Returns (one error array per
    set, hedged-call prices at the horizon), all shaped like the spots;
    the prices are the percentage denominator.  The spots are valued once
    for all sets, through ``_valued``, and raise ``PricingError`` as
    there; errors out of the float range raise too.  ``work``, if given,
    is ``5 + len(weight_sets)`` or more float arrays of the spots' shape
    that the run writes into instead of allocating; see ``_valued``.
    """
    diffs, target = _valued(cfg, weight_sets, spots_at_horizon, True, work)
    return [_less_carried(cfg, d, c, d) for d, c in zip(diffs, costs)], target


def true_error(cfg: HedgeConfig, weight_sets, spot_at_0, spot_at_Th) -> list:
    """One full error report per weight set for known setup and horizon spots.

    Broadcasts like ``call_price``: the gross fields are shaped like the
    horizon spots, the net-cost fields like the setup spots, and the true
    fields like both together.  Each spot set is valued once for all
    weight sets; the hedged-call prices at the horizon are the denominator
    of both the gross and the true error percentages.  Raises
    ``PricingError`` as ``gross_error``, ``net_cost`` and ``true_errors``
    do.
    """
    gross, target = _valued(cfg, weight_sets, spot_at_Th, True)
    costs, _ = net_cost(cfg, weight_sets, spot_at_0)
    reports = []
    for eps, (cost, cost_pct) in zip(gross, costs):
        err = _less_carried(cfg, eps, cost, np.empty(np.broadcast(eps, cost).shape))
        eps_pct, err_pct = _percentages(target, eps, err)
        reports.append(HedgeReport(eps, eps_pct, cost, cost_pct, err, err_pct))
    return reports
