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
All percentage figures are reported relative to the target call's price at
the relevant time, in percent.
"""

from __future__ import annotations

import enum
import math
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


# Horizon spots valued per pass of ``true_errors``: 128 KiB per float64 array.
_BLOCK = 1 << 14


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
        if not self.vol > 0:
            raise HedgeConstraintError(f"vol must be positive, got {self.vol}")


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


def _require_spot(name: str, spot: float):
    if not (spot > 0 and math.isfinite(spot)):
        raise PricingError(f"{name} must be positive and finite, got {spot}")


def _require_spots(name: str, spots: np.ndarray):
    """``_require_spot`` over an array: one min and one max when all pass."""
    if not (spots.min() > 0 and spots.max() < math.inf):
        bad = spots[~((spots > 0) & (spots < math.inf))]
        _require_spot(name, float(bad[0]))


def _require_valuation_horizon(cfg: HedgeConfig):
    if cfg.horizon >= min(cfg.wing_maturity, cfg.mid_maturity):
        raise HedgeConstraintError(
            "valuation needs the horizon strictly before the nearest "
            f"hedging expiry, got {cfg.horizon}"
        )


def _portfolio_minus_target(cfg, w, spot, wing_tau, mid_tau, target_tau):
    args = (cfg.rate, cfg.dividend_yield, cfg.vol)
    portfolio = (
        w.w_low * call_price(spot, cfg.strike_low, *args, wing_tau)
        + w.w_mid * call_price(spot, cfg.strike_mid, *args, mid_tau)
        + w.w_high * call_price(spot, cfg.strike_high, *args, wing_tau)
    )
    target = call_price(spot, cfg.target_strike, *args, target_tau)
    return portfolio - target, target


def _horizon_taus(cfg: HedgeConfig):
    """Times left at the horizon: wing, middle and target expiries."""
    return (
        cfg.wing_maturity - cfg.horizon,
        cfg.mid_maturity - cfg.horizon,
        cfg.target_maturity - cfg.horizon,
    )


def _at_horizon(cfg: HedgeConfig, w: HedgeWeights, spot_at_horizon: float):
    _require_valuation_horizon(cfg)
    _require_spot("spot at the horizon", spot_at_horizon)
    return _portfolio_minus_target(cfg, w, spot_at_horizon, *_horizon_taus(cfg))


def gross_error(cfg: HedgeConfig, w: HedgeWeights, spot_at_horizon: float):
    """Portfolio minus target at the horizon, in currency and in percent."""
    diff, target = _at_horizon(cfg, w, spot_at_horizon)
    return float(diff), float(100.0 * diff / target)


def net_cost(cfg: HedgeConfig, w: HedgeWeights, spot_at_start: float):
    """Portfolio minus target at setup, in currency and in percent."""
    _require_spot("spot at setup", spot_at_start)
    diff, target = _portfolio_minus_target(
        cfg,
        w,
        spot_at_start,
        cfg.wing_maturity,
        cfg.mid_maturity,
        cfg.target_maturity,
    )
    return float(diff), float(100.0 * diff / target)


def true_errors(
    cfg: HedgeConfig, w: HedgeWeights, spot_at_start: float, spots_at_horizon
):
    """Vectorized true error over many horizon spots.

    Returns (errors, hedged-call prices at the horizon), both shaped like
    the spots; the latter is the percentage denominator.  The setup cost is
    valued once and compounded to the horizon at the risk-free rate before
    subtraction.  Every spot must be positive and finite.

    Spots are valued in blocks of ``_BLOCK``, whose 128 KiB temporaries
    stay in a core's L2 cache, and each block is written into the two
    result arrays.  Beyond its input the call therefore holds 16 bytes per
    spot plus about 1 MB of block temporaries, and each error is the same
    float as in a valuation of all spots at once.
    """
    _require_valuation_horizon(cfg)
    spots = np.asarray(spots_at_horizon, dtype=float)
    cost, _ = net_cost(cfg, w, spot_at_start)
    carried = cost * math.exp(cfg.rate * cfg.horizon)
    taus = _horizon_taus(cfg)
    flat = spots.reshape(-1)
    errors, target = np.empty(flat.size), np.empty(flat.size)
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        _require_spots("spot at the horizon", flat[block])
        eps, target[block] = _portfolio_minus_target(cfg, w, flat[block], *taus)
        np.subtract(eps, carried, out=errors[block])
    return errors.reshape(spots.shape), target.reshape(spots.shape)


def true_error(
    cfg: HedgeConfig, w: HedgeWeights, spot_at_0: float, spot_at_Th: float
) -> HedgeReport:
    """Full error report for one known setup spot and one horizon spot.

    The horizon spot is valued once; its hedged-call price is the
    denominator of both the gross and the true error percentages.
    """
    diff, target = _at_horizon(cfg, w, spot_at_Th)
    eps = float(diff)
    cost, cost_pct = net_cost(cfg, w, spot_at_0)
    err = eps - cost * math.exp(cfg.rate * cfg.horizon)
    return HedgeReport(
        gross_error=eps,
        gross_error_pct=float(100.0 * diff / target),
        net_cost=cost,
        net_cost_pct=cost_pct,
        true_error=float(err),
        true_error_pct=float(100.0 * err / target),
    )
