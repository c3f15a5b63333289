"""Static-hedge weights and error accounting."""

import dataclasses
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpricer import (
    HedgeConfig,
    HedgeConstraintError,
    HedgeScheme,
    HedgeWeights,
    PricingError,
    SingularHedgeSystem,
    call_price,
    dual_coefficients,
    gross_error,
    net_cost,
    solve_weights,
    true_error,
    true_errors,
)
from dualpricer.hedge import _coefficients
from dualpricer.tables import DEFAULT_HEDGE

# fixed setup: K=50 call maturing in 6 months hedged with a 40/50/60
# strangle-plus-mid, wings at 1 month, mid at 2 months, unwound 5 days
# before the wing expiry
HORIZON = 1.0 / 12.0 - 5.0 / 365.0
SPAN = 0.5 - HORIZON


def test_default_config_values():
    cfg = DEFAULT_HEDGE
    assert (cfg.strike_low, cfg.strike_mid, cfg.strike_high) == (40.0, 50.0, 60.0)
    assert cfg.horizon == pytest.approx(HORIZON, rel=1e-15)
    assert (cfg.vol, cfg.rate, cfg.dividend_yield) == (0.20, 0.05, 0.01)


@pytest.mark.parametrize(
    "bad",
    [
        {"strike_low": 55.0},
        {"strike_high": 45.0},
        {"strike_mid": 35.0},
        {"strike_mid": 65.0},
        {"strike_low": -40.0},
        {"horizon": 0.0},
        {"horizon": 0.2},
        {"wing_maturity": 0.6},
        {"mid_maturity": 0.7},
        {"vol": 0.0},
        {"vol": 1e300},
        {"wing_maturity": 0.5},  # expires with the target
        {"mid_maturity": 0.5},
    ],
)
def test_config_rejects_bad_orderings(bad):
    with pytest.raises(HedgeConstraintError):
        replace(DEFAULT_HEDGE, **bad)


def test_horizon_may_touch_wing_expiry_for_solving_only():
    cfg = replace(DEFAULT_HEDGE, horizon=DEFAULT_HEDGE.wing_maturity)
    weights = solve_weights(cfg, HedgeScheme.BSM_DUAL)
    assert math.isfinite(weights.w_mid)
    with pytest.raises(HedgeConstraintError):
        gross_error(cfg, (weights,), 50.0)
    ((cost, _),), _ = net_cost(cfg, (weights,), 50.0)
    with pytest.raises(HedgeConstraintError):
        true_errors(cfg, [weights], [cost], np.array([50.0]))


def test_coefficients_frozen_values():
    co = dual_coefficients(DEFAULT_HEDGE)
    assert co.h_high == pytest.approx(1.5243383571424367, rel=1e-12)
    assert co.h_low == pytest.approx(-co.h_high, rel=1e-12)
    assert co.h_mid == 0.0
    assert co.alpha_wing == pytest.approx(-0.03183023872679045, rel=1e-12)
    assert co.alpha_mid == pytest.approx(-0.22546419098143233, rel=1e-12)
    assert co.beta == pytest.approx(0.1312044659001595, rel=1e-12)
    assert co.gamma == pytest.approx(0.00430365296803653, rel=1e-12)


def test_coefficients_vanish_without_carry():
    cfg = replace(DEFAULT_HEDGE, rate=0.0, dividend_yield=0.0)
    co = dual_coefficients(cfg)
    assert co.beta == 0.0
    assert co.gamma == 0.0
    assert co.h_mid == 0.0


def test_full_scheme_weights():
    w = solve_weights(DEFAULT_HEDGE, HedgeScheme.BSM_DUAL)
    assert w.scheme is HedgeScheme.BSM_DUAL
    assert w.w_low == pytest.approx(0.21841301502212798, rel=1e-12)
    assert w.w_mid == pytest.approx(0.6323380913794179, rel=1e-12)
    assert w.w_high == pytest.approx(0.1456086766814187, rel=1e-12)
    assert w.determinant == pytest.approx(6.486726860380933, rel=1e-12)
    assert (round(w.w_low, 4), round(w.w_mid, 4), round(w.w_high, 4)) == (
        0.2184,
        0.6323,
        0.1456,
    )


def test_zero_rate_scheme_weights_are_elevenths():
    w = solve_weights(DEFAULT_HEDGE, HedgeScheme.WU_ZHU)
    assert w.scheme is HedgeScheme.WU_ZHU
    assert w.w_low == pytest.approx(2.0 / 11.0, abs=1e-12)
    assert w.w_mid == pytest.approx(7.0 / 11.0, abs=1e-12)
    assert w.w_high == pytest.approx(2.0 / 11.0, abs=1e-12)
    assert w.w_low == pytest.approx(w.w_high, abs=1e-13)


@pytest.mark.parametrize("scheme", [HedgeScheme.BSM_DUAL, HedgeScheme.WU_ZHU])
def test_weights_satisfy_matching_rows(scheme):
    if scheme is HedgeScheme.WU_ZHU:
        co = dual_coefficients(
            replace(
                DEFAULT_HEDGE,
                rate=0.0,
                dividend_yield=0.0,
                horizon=DEFAULT_HEDGE.wing_maturity,
            )
        )
    else:
        co = dual_coefficients(DEFAULT_HEDGE)
    w = solve_weights(DEFAULT_HEDGE, scheme)
    weights = (w.w_low, w.w_mid, w.w_high)
    hs = (co.h_low, co.h_mid, co.h_high)
    alphas = (co.alpha_wing, co.alpha_mid, co.alpha_wing)
    value = sum(wt * (1.0 + co.gamma * h**2) for wt, h in zip(weights, hs))
    slope = sum(wt * (1.0 + co.beta * h) * h for wt, h in zip(weights, hs))
    decay = sum(wt * (h**2 - a) for wt, h, a in zip(weights, hs, alphas))
    assert value == pytest.approx(1.0, abs=1e-12)
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert decay == pytest.approx(1.0, abs=1e-12)


@st.composite
def hedge_configs(draw):
    strike = draw(st.floats(10.0, 200.0))
    maturity = draw(st.floats(0.05, 3.0))
    wing = draw(st.floats(0.02, 0.9)) * maturity
    mid = draw(st.floats(0.02, 0.9)) * maturity
    low = strike * draw(st.floats(0.5, 0.98))
    high = strike * draw(st.floats(1.02, 1.5))
    return HedgeConfig(
        target_strike=strike,
        target_maturity=maturity,
        strike_low=low,
        strike_mid=draw(st.floats(low, high)),
        strike_high=high,
        wing_maturity=wing,
        mid_maturity=mid,
        horizon=draw(st.floats(0.01, 1.0)) * min(wing, mid),
        vol=draw(st.floats(0.05, 1.0)),
        rate=draw(st.floats(-0.1, 0.2)),
        dividend_yield=draw(st.floats(-0.1, 0.2)),
    )


@settings(max_examples=300, deadline=None)
@given(hedge_configs(), st.sampled_from(HedgeScheme))
def test_weight_system_residual_property(cfg, scheme):
    # the wu-zhu rows: zero carry with the unwind at the wing expiry, which
    # may come after the middle expiry, so no HedgeConfig can hold them
    if scheme is HedgeScheme.WU_ZHU:
        co = _coefficients(cfg, 0.0, 0.0, cfg.wing_maturity)
    else:
        co = dual_coefficients(cfg)
    try:
        w = solve_weights(cfg, scheme)
    except SingularHedgeSystem:
        return
    weights = (w.w_low, w.w_mid, w.w_high)
    hs = (co.h_low, co.h_mid, co.h_high)
    alphas = (co.alpha_wing, co.alpha_mid, co.alpha_wing)
    rows = (
        [1.0 + co.gamma * h**2 for h in hs],
        [(1.0 + co.beta * h) * h for h in hs],
        [h**2 - a for h, a in zip(hs, alphas)],
    )
    scale = max(1.0, max(map(abs, weights)) * max(abs(a) for row in rows for a in row))
    for row, rhs in zip(rows, (1.0, 0.0, 1.0)):
        residual = sum(a * wt for a, wt in zip(row, weights)) - rhs
        assert abs(residual) <= 1e-12 * scale


def test_full_scheme_degenerates_to_zero_rate_scheme():
    stripped = replace(
        DEFAULT_HEDGE,
        rate=0.0,
        dividend_yield=0.0,
        horizon=DEFAULT_HEDGE.wing_maturity,
    )
    full = solve_weights(stripped, HedgeScheme.BSM_DUAL)
    special = solve_weights(DEFAULT_HEDGE, HedgeScheme.WU_ZHU)
    assert full.w_low == pytest.approx(special.w_low, abs=1e-12)
    assert full.w_mid == pytest.approx(special.w_mid, abs=1e-12)
    assert full.w_high == pytest.approx(special.w_high, abs=1e-12)


def test_collapsed_strikes_make_system_singular():
    cfg = replace(
        DEFAULT_HEDGE, strike_low=50.0 - 1e-12, strike_high=50.0 + 1e-12
    )
    with pytest.raises(SingularHedgeSystem) as exc:
        solve_weights(cfg, HedgeScheme.BSM_DUAL)
    assert abs(exc.value.determinant) < 1e-12


GROSS_ROWS = {
    # spot at horizon: (hedged call, full e, full %, zero-rate e, zero-rate %)
    50.0: (3.029, 0.006, 0.19, -0.355, -11.73),
    55.0: (6.564, 0.046, 0.70, -0.482, -7.35),
    70.0: (20.772, 0.002, 0.01, -0.652, -3.14),
}


def test_gross_error_golden_rows():
    cfg = DEFAULT_HEDGE
    full = solve_weights(cfg, HedgeScheme.BSM_DUAL)
    special = solve_weights(cfg, HedgeScheme.WU_ZHU)
    for spot, (hedged, e_full, pct_full, e_zr, pct_zr) in GROSS_ROWS.items():
        price = call_price(
            spot,
            cfg.target_strike,
            cfg.rate,
            cfg.dividend_yield,
            cfg.vol,
            cfg.target_maturity - cfg.horizon,
        )
        assert price == pytest.approx(hedged, abs=2e-3)
        ((e, pct),), _ = gross_error(cfg, (full,), spot)
        assert e == pytest.approx(e_full, abs=2e-3)
        assert pct == pytest.approx(pct_full, abs=5e-2)
        ((e, pct),), _ = gross_error(cfg, (special,), spot)
        assert e == pytest.approx(e_zr, abs=2e-3)
        assert pct == pytest.approx(pct_zr, abs=5e-2)


NET_ROWS = {
    # spot at setup: (hedged call, full x, full %, zero-rate x, zero-rate %)
    50.0: (3.297, 0.047, 1.43, -0.316, -9.59),
    80.0: (30.836, 0.009, 0.03, -0.605, -1.96),
}


def test_net_cost_golden_rows():
    cfg = DEFAULT_HEDGE
    full = solve_weights(cfg, HedgeScheme.BSM_DUAL)
    special = solve_weights(cfg, HedgeScheme.WU_ZHU)
    for spot, (hedged, x_full, pct_full, x_zr, pct_zr) in NET_ROWS.items():
        price = call_price(
            spot,
            cfg.target_strike,
            cfg.rate,
            cfg.dividend_yield,
            cfg.vol,
            cfg.target_maturity,
        )
        assert price == pytest.approx(hedged, abs=2e-3)
        ((x, pct),), _ = net_cost(cfg, (full,), spot)
        assert x == pytest.approx(x_full, abs=2e-3)
        assert pct == pytest.approx(pct_full, abs=5e-2)
        ((x, pct),), _ = net_cost(cfg, (special,), spot)
        assert x == pytest.approx(x_zr, abs=2e-3)
        assert pct == pytest.approx(pct_zr, abs=5e-2)


TRUE_ROWS = {
    # (spot at setup, spot at horizon): full e, full %, zero-rate e, zero-rate %
    (55.0, 45.0): (0.210, 22.88, 0.556, 60.45),
    (50.0, 50.0): (-0.041, -1.37, -0.038, -1.26),
    (45.0, 55.0): (-0.106, -1.61, -0.446, -6.79),
}


def test_true_error_golden_rows():
    cfg = DEFAULT_HEDGE
    full = solve_weights(cfg, HedgeScheme.BSM_DUAL)
    special = solve_weights(cfg, HedgeScheme.WU_ZHU)
    for (s0, sh), (e_full, pct_full, e_zr, pct_zr) in TRUE_ROWS.items():
        (report,) = true_error(cfg, (full,), s0, sh)
        assert report.true_error == pytest.approx(e_full, abs=2e-3)
        assert report.true_error_pct == pytest.approx(pct_full, abs=5e-2)
        (report,) = true_error(cfg, (special,), s0, sh)
        assert report.true_error == pytest.approx(e_zr, abs=2e-3)
        assert report.true_error_pct == pytest.approx(pct_zr, abs=5e-2)


def test_report_combines_gross_and_cost():
    cfg = DEFAULT_HEDGE
    w = solve_weights(cfg, HedgeScheme.BSM_DUAL)
    (report,) = true_error(cfg, (w,), 52.0, 47.0)
    assert report.gross_error == pytest.approx(gross_error(cfg, (w,), 47.0)[0][0][0])
    assert report.net_cost == pytest.approx(net_cost(cfg, (w,), 52.0)[0][0][0])
    compounded = report.net_cost * math.exp(cfg.rate * cfg.horizon)
    assert report.true_error == pytest.approx(
        report.gross_error - compounded, abs=1e-12
    )


def test_true_errors_vectorized_matches_scalar():
    cfg = DEFAULT_HEDGE
    w = solve_weights(cfg, HedgeScheme.BSM_DUAL)
    spots = np.array([45.0, 50.0, 55.0])
    ((cost, _),), _ = net_cost(cfg, (w,), 50.0)
    (errors,), hedged = true_errors(cfg, [w], [cost], spots)
    assert errors.shape == hedged.shape == spots.shape
    for err, price, spot in zip(errors, hedged, spots):
        (report,) = true_error(cfg, (w,), 50.0, float(spot))
        assert err == pytest.approx(report.true_error, abs=1e-12)
        assert 100.0 * err / price == pytest.approx(
            report.true_error_pct, abs=1e-9
        )
    # the point reports broadcast: t4-t6 value a whole column in one call
    # and must print what one call per cell would, bit for bit
    starts = np.linspace(20.0, 120.0, 41)
    horizons = starts[::-1]

    def bits(values):
        return [np.float64(v).tobytes() for v in values]

    for scheme in HedgeScheme:
        w = solve_weights(cfg, scheme)
        (gross,), _ = gross_error(cfg, (w,), horizons)
        (cost,), _ = net_cost(cfg, (w,), starts)
        (report,) = true_error(cfg, (w,), starts, horizons.reshape(-1, 1))
        for i, (start, horizon) in enumerate(zip(starts, horizons)):
            assert bits(g[i] for g in gross) == bits(gross_error(cfg, (w,), float(horizon))[0][0])
            assert bits(c[i] for c in cost) == bits(net_cost(cfg, (w,), float(start))[0][0])
            for j, at_horizon in enumerate(horizons):
                (cell,) = true_error(cfg, (w,), float(start), float(at_horizon))
                fields = (np.broadcast_to(r, (41, 41)) for r in dataclasses.astuple(report))
                assert bits(r[j, i] for r in fields) == bits(
                    dataclasses.astuple(cell)
                )


spot_sets = st.one_of(
    st.floats(30.0, 120.0),
    st.lists(st.floats(30.0, 120.0), min_size=1, max_size=6).map(np.array),
)


def field_bits(values):
    return [(np.shape(v), np.asarray(v, dtype=float).tobytes()) for v in values]


@settings(max_examples=60, deadline=None)
@given(
    st.permutations(list(HedgeScheme)),
    st.floats(0.15, 0.4),
    st.floats(0.0, 0.1),
    spot_sets,
    spot_sets,
)
def test_weight_sets_report_as_each_set_alone(schemes, vol, rate, starts, horizons):
    cfg = replace(DEFAULT_HEDGE, vol=vol, rate=rate)
    weight_sets = [solve_weights(cfg, s) for s in schemes]
    # a column of horizon spots against a row of setup spots
    horizons = np.reshape(horizons, (-1, 1)) if np.ndim(horizons) else horizons
    for report_of, spots in ((gross_error, horizons), (net_cost, starts)):
        pairs, target = report_of(cfg, weight_sets, spots)
        for w, pair in zip(weight_sets, pairs, strict=True):
            (alone,), alone_target = report_of(cfg, (w,), spots)
            assert field_bits(pair) == field_bits(alone)
            assert field_bits([target]) == field_bits([alone_target])
    reports = true_error(cfg, weight_sets, starts, horizons)
    for w, together in zip(weight_sets, reports, strict=True):
        (alone,) = true_error(cfg, (w,), starts, horizons)
        assert field_bits(dataclasses.astuple(together)) == field_bits(
            dataclasses.astuple(alone)
        )


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_true_errors_rejects_bad_horizon_spots(bad):
    w = solve_weights(DEFAULT_HEDGE, HedgeScheme.BSM_DUAL)
    ((cost, _),), _ = net_cost(DEFAULT_HEDGE, (w,), 50.0)
    with pytest.raises(PricingError, match="spot at the horizon"):
        true_errors(DEFAULT_HEDGE, [w], [cost], np.array([50.0, bad, 45.0]))


def test_empty_spots_give_empty_reports():
    # as call_price does: no spots, no values, and no check raises
    cfg, empty = DEFAULT_HEDGE, np.array([])
    weight_sets = [solve_weights(cfg, s) for s in HedgeScheme]
    for report_of in (gross_error, net_cost):
        pairs, target = report_of(cfg, weight_sets, empty)
        assert [np.shape(v) for pair in pairs for v in pair] == [(0,)] * 4
        assert target.shape == (0,)
    errors, target = true_errors(cfg, weight_sets, [0.0, 0.0], empty)
    assert [np.shape(v) for v in (*errors, target)] == [(0,)] * 3
    # gross fields take the horizon spots' shape, net-cost fields the
    # setup spots', true fields both together
    for starts, horizons, shapes in (
        (empty, 45.0, [(), (), (0,), (0,), (0,), (0,)]),
        (55.0, empty, [(0,), (0,), (), (), (0,), (0,)]),
        (empty, empty.reshape(-1, 1), [(0, 1)] * 2 + [(0,)] * 2 + [(0, 0)] * 2),
    ):
        for report in true_error(cfg, weight_sets, starts, horizons):
            assert [np.shape(f) for f in dataclasses.astuple(report)] == shapes


def test_hedged_call_worth_less_than_strike_rounding_is_rejected():
    # the floor is eps K, the rounding unit of the target strike; the K = 50
    # call is worth 4.7e-15 at horizon spot 18 and 1.2e-13 at spot 19
    cfg = DEFAULT_HEDGE
    w = solve_weights(cfg, HedgeScheme.BSM_DUAL)
    floor = sys.float_info.epsilon * cfg.target_strike
    args = (cfg.target_strike, cfg.rate, cfg.dividend_yield, cfg.vol)
    to_horizon = cfg.target_maturity - cfg.horizon
    assert call_price(18.0, *args, to_horizon) < floor < call_price(19.0, *args, to_horizon)
    assert math.isfinite(gross_error(cfg, (w,), 19.0)[0][0][1])
    with pytest.raises(PricingError, match="below"):
        gross_error(cfg, (w,), 18.0)
    with pytest.raises(PricingError, match="below"):
        true_errors(cfg, [w], [0.0], np.array([50.0, 18.0]))
    # at setup the call has its whole maturity left
    assert call_price(16.0, *args, cfg.target_maturity) < floor
    assert floor < call_price(17.0, *args, cfg.target_maturity)
    assert math.isfinite(net_cost(cfg, (w,), 17.0)[0][0][1])
    with pytest.raises(PricingError, match="below"):
        net_cost(cfg, (w,), 16.0)


def test_empty_portfolio_loses_the_target():
    cfg = DEFAULT_HEDGE
    none = HedgeWeights(0.0, 0.0, 0.0, HedgeScheme.BSM_DUAL, 1.0)
    ((e, pct),), _ = gross_error(cfg, (none,), 60.0)
    assert pct == pytest.approx(-100.0, abs=1e-12)
    assert e < 0
    ((x, pct),), _ = net_cost(cfg, (none,), 60.0)
    assert pct == pytest.approx(-100.0, abs=1e-12)
    assert x < 0
