"""Acceptance gate: seven published-figure and identity checks.

Each test prints one PASS/FAIL line (visible under ``pytest -v``) and then
asserts, so a red run still shows the per-criterion verdict.  Golden
numbers are the published four-table and simulation figures; tolerances
are fixed by the acceptance contract, not by what the code happens to do.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from dualpricer import (
    AnalyticEngine,
    ExerciseStyle,
    HedgeScheme,
    LatticeEngine,
    MarketState,
    OptionRight,
    OptionSpec,
    bsm_valuation,
    call_price,
    delta_via_dual,
    dual_coefficients,
    gamma_via_dual,
    gross_error,
    lattice_delta,
    lattice_gamma,
    lattice_price,
    net_cost,
    price_currency_put_approx,
    price_via_dual,
    run_hedge_sim,
    solve_weights,
    to_dual,
    true_error,
)
from dualpricer.simulate import SimConfig
from dualpricer.tables import DEFAULT_HEDGE

STEPS = 365
SPOTS = (36.0, 38.0, 40.0, 42.0, 44.0)
PUT = OptionSpec(OptionRight.PUT, ExerciseStyle.AMERICAN, 40.0, 1.0)

T1_PUT = (7.108, 6.157, 5.322, 4.592, 3.955)
T1_CALL = (7.109, 6.158, 5.323, 4.593, 3.956)

T2_DELTA_DIRECT = (-0.5089, -0.4467, -0.3908, -0.3407, -0.2962)
T2_DELTA_VIA = (-0.5088, -0.4467, -0.3908, -0.3407, -0.2962)
T2_GAMMA_DIRECT = (0.0326, 0.0295, 0.0265, 0.0236, 0.0210)
T2_GAMMA_VIA = (0.0325, 0.0295, 0.0265, 0.0236, 0.0210)

T3_ERR_PCT = {
    0.00: (0.029, -0.035, -0.064, -0.060, -0.038),
    0.03: (-0.025, -0.083, -0.105, -0.093, -0.063),
    0.05: (-0.902, -0.870, -0.814, -0.735, -0.646),
}

# spot: hedged call, full error, full %, zero-rate error, zero-rate %
T4_GROSS = {
    35.0: (0.008, -0.008, -100.00, -0.008, -100.00),
    40.0: (0.144, -0.060, -41.78, -0.074, -51.52),
    45.0: (0.919, 0.218, 23.69, 0.034, 3.73),
    50.0: (3.029, 0.006, 0.19, -0.355, -11.73),
    55.0: (6.564, 0.046, 0.70, -0.482, -7.35),
    60.0: (11.005, -0.108, -0.98, -0.779, -7.07),
    65.0: (15.829, -0.034, -0.21, -0.706, -4.46),
    70.0: (20.772, 0.002, 0.01, -0.652, -3.14),
    75.0: (25.744, 0.009, 0.03, -0.627, -2.44),
    80.0: (30.721, 0.010, 0.03, -0.608, -1.98),
    85.0: (35.699, 0.010, 0.03, -0.590, -1.65),
}
T5_COST = {
    35.0: (0.017, -0.015, -88.27, -0.015, -90.23),
    40.0: (0.210, 0.008, 3.83, -0.028, -13.33),
    45.0: (1.107, 0.151, 13.66, -0.036, -3.27),
    50.0: (3.297, 0.047, 1.43, -0.316, -9.59),
    55.0: (6.814, 0.007, 0.11, -0.520, -7.63),
    60.0: (11.196, -0.055, -0.49, -0.696, -6.21),
    65.0: (15.978, -0.040, -0.25, -0.705, -4.41),
    70.0: (20.901, -0.005, -0.02, -0.656, -3.14),
    75.0: (25.864, 0.007, 0.03, -0.626, -2.42),
    80.0: (30.836, 0.009, 0.03, -0.605, -1.96),
    85.0: (35.811, 0.010, 0.03, -0.587, -1.64),
}
# published (row, column) spot pair: full error, full %, zero-rate error,
# zero-rate %; the published labels are swapped relative to the formula,
# so row (a, b) is reproduced by setup spot b and horizon spot a
T6_TRUE = {
    (45.0, 45.0): (0.066, 7.18, 0.071, 7.68),
    (45.0, 50.0): (0.170, 18.53, 0.351, 38.23),
    (45.0, 55.0): (0.210, 22.88, 0.556, 60.45),
    (50.0, 45.0): (-0.146, -4.82, -0.319, -10.54),
    (50.0, 50.0): (-0.041, -1.37, -0.038, -1.26),
    (50.0, 55.0): (-0.002, -0.05, 0.166, 5.48),
    (55.0, 45.0): (-0.106, -1.61, -0.446, -6.79),
    (55.0, 50.0): (-0.001, -0.02, -0.165, -2.51),
    (55.0, 55.0): (0.039, 0.59, 0.039, 0.60),
}
# (drift, spot): full MHE%, MAE%, RMSE, zero-rate MHE%, MAE%, RMSE
T7_SIM = {
    (0.04, 46.0): (0.53, 7.30, 0.074, 7.09, 11.99, 0.144),
    (0.04, 48.0): (2.30, 4.77, 0.077, 5.73, 9.90, 0.160),
    (0.04, 50.0): (1.19, 2.44, 0.058, 3.11, 5.58, 0.139),
    (0.04, 52.0): (0.34, 0.90, 0.037, 1.49, 2.62, 0.112),
    (0.04, 54.0): (0.13, 0.47, 0.037, 0.85, 1.73, 0.112),
    (0.08, 46.0): (0.61, 6.94, 0.075, 6.42, 11.63, 0.147),
    (0.08, 48.0): (2.04, 4.57, 0.077, 5.05, 9.43, 0.160),
    (0.08, 50.0): (1.02, 2.29, 0.057, 2.69, 5.26, 0.137),
    (0.08, 52.0): (0.29, 0.85, 0.036, 1.27, 2.46, 0.112),
    (0.08, 54.0): (0.11, 0.46, 0.038, 0.71, 1.66, 0.114),
}


def report(capsys, line: str):
    with capsys.disabled():
        print(line, flush=True)


def market(spot, rate=0.06, dividend_yield=0.0):
    return MarketState(spot, rate, dividend_yield, 0.40)


def test_criterion_1_prices_match_and_duality_holds(capsys):
    engine = LatticeEngine(STEPS)
    started = time.perf_counter()
    puts = [lattice_price(PUT, market(s), STEPS) for s in SPOTS]
    duals = [price_via_dual(PUT, market(s), engine) for s in SPOTS]
    elapsed = time.perf_counter() - started
    put_dev = max(abs(p - ref) for p, ref in zip(puts, T1_PUT))
    call_dev = max(abs(d - ref) for d, ref in zip(duals, T1_CALL))
    rel = max(abs(d - p) / p for p, d in zip(puts, duals))
    ok = put_dev <= 2e-3 and call_dev <= 2e-3 and rel <= 3e-4 and elapsed < 1.0
    report(
        capsys,
        f"ACCEPTANCE 1 put/dual-call prices: {'PASS' if ok else 'FAIL'} "
        f"(dev put {put_dev:.4f}, call {call_dev:.4f}, dual rel {rel:.1e}, "
        f"{elapsed:.2f}s)",
    )
    assert put_dev <= 2e-3
    assert call_dev <= 2e-3
    assert rel <= 3e-4
    assert elapsed < 1.0


def test_criterion_2_greeks_via_dual(capsys):
    engine = LatticeEngine(STEPS)
    rows = []
    for s, d_ref, dv_ref, g_ref, gv_ref in zip(
        SPOTS, T2_DELTA_DIRECT, T2_DELTA_VIA, T2_GAMMA_DIRECT, T2_GAMMA_VIA
    ):
        mkt = market(s)
        d = lattice_delta(PUT, mkt, STEPS)
        g = lattice_gamma(PUT, mkt, STEPS)
        dv = delta_via_dual(PUT, mkt, engine)
        gv = gamma_via_dual(PUT, mkt, engine)
        rows.append(
            (
                abs(d - d_ref),
                abs(dv - dv_ref),
                abs(g - g_ref),
                abs(gv - gv_ref),
                abs(dv - d) / abs(d),
                abs(gv - g) / abs(g),
            )
        )
    anchor = max(max(r[:4]) for r in rows)
    rel = max(max(r[4:]) for r in rows)
    ok = anchor <= 5e-4 and rel <= 3e-4
    report(
        capsys,
        f"ACCEPTANCE 2 Greeks via dual: {'PASS' if ok else 'FAIL'} "
        f"(anchor dev {anchor:.1e} <= 5e-4, via-vs-direct rel {rel:.1e} <= 3e-4)",
    )
    assert anchor <= 5e-4
    assert rel <= 3e-4


def test_criterion_3_currency_put_approximation(capsys):
    dev = 0.0
    panel_max = {}
    for rate, refs in T3_ERR_PCT.items():
        errs = []
        for s, ref in zip(SPOTS, refs):
            mkt = MarketState(s, rate, 0.06, 0.40)
            american = lattice_price(PUT, mkt, STEPS)
            approx, _ = price_currency_put_approx(PUT, mkt)
            err = 100.0 * (approx - american) / american
            errs.append(err)
            dev = max(dev, abs(err - ref))
        panel_max[rate] = max(abs(e) for e in errs)
    ok = dev <= 0.02 and panel_max[0.00] <= 0.07 and panel_max[0.05] <= 0.91
    report(
        capsys,
        f"ACCEPTANCE 3 currency-put approximation: {'PASS' if ok else 'FAIL'} "
        f"(err-col dev {dev:.3f}pp <= 0.02, |err| r=0 {panel_max[0.00]:.3f}% "
        f"<= 0.07, r=5% {panel_max[0.05]:.3f}% <= 0.91)",
    )
    assert dev <= 0.02
    assert panel_max[0.00] <= 0.07
    assert panel_max[0.05] <= 0.91


def test_criterion_4_hedge_weights(capsys):
    full = solve_weights(DEFAULT_HEDGE, HedgeScheme.BSM_DUAL)
    special = solve_weights(DEFAULT_HEDGE, HedgeScheme.WU_ZHU)
    got = (
        tuple(round(w, 4) for w in (full.w_low, full.w_mid, full.w_high)),
        tuple(round(w, 4) for w in (special.w_low, special.w_mid, special.w_high)),
    )
    want = ((0.2184, 0.6323, 0.1456), (0.1818, 0.6364, 0.1818))
    ok = got == want
    report(
        capsys,
        f"ACCEPTANCE 4 hedge weights: {'PASS' if ok else 'FAIL'} "
        f"(full {got[0]}, zero-rate {got[1]})",
    )
    assert got == want


def test_criterion_5_hedge_error_tables(capsys):
    cfg = DEFAULT_HEDGE
    schemes = (
        solve_weights(cfg, HedgeScheme.BSM_DUAL),
        solve_weights(cfg, HedgeScheme.WU_ZHU),
    )
    value_dev = 0.0
    pct_dev = 0.0

    for spot, (hedged, *cols) in T4_GROSS.items():
        price = call_price(
            spot, cfg.target_strike, cfg.rate, cfg.dividend_yield, cfg.vol,
            cfg.target_maturity - cfg.horizon,
        )
        value_dev = max(value_dev, abs(price - hedged))
        for w, (e_ref, pct_ref) in zip(schemes, (cols[:2], cols[2:])):
            ((e, pct),), _ = gross_error(cfg, (w,), spot)
            value_dev = max(value_dev, abs(e - e_ref))
            pct_dev = max(pct_dev, abs(pct - pct_ref))

    for spot, (hedged, *cols) in T5_COST.items():
        price = call_price(
            spot, cfg.target_strike, cfg.rate, cfg.dividend_yield, cfg.vol,
            cfg.target_maturity,
        )
        value_dev = max(value_dev, abs(price - hedged))
        for w, (x_ref, pct_ref) in zip(schemes, (cols[:2], cols[2:])):
            ((x, pct),), _ = net_cost(cfg, (w,), spot)
            value_dev = max(value_dev, abs(x - x_ref))
            pct_dev = max(pct_dev, abs(pct - pct_ref))

    for (row_spot, col_spot), cols in T6_TRUE.items():
        for w, (e_ref, pct_ref) in zip(schemes, (cols[:2], cols[2:])):
            (rep,) = true_error(cfg, (w,), col_spot, row_spot)
            value_dev = max(value_dev, abs(rep.true_error - e_ref))
            pct_dev = max(pct_dev, abs(rep.true_error_pct - pct_ref))

    ok = value_dev <= 2e-3 and pct_dev <= 5e-2
    report(
        capsys,
        f"ACCEPTANCE 5 hedge error tables: {'PASS' if ok else 'FAIL'} "
        f"(value dev {value_dev:.4f} <= 0.002, pct dev {pct_dev:.3f}pp <= 0.05)",
    )
    assert value_dev <= 2e-3
    assert pct_dev <= 5e-2


def test_criterion_6_simulated_hedge_errors(capsys):
    paths, seed = 10_000, 42
    started = time.perf_counter()
    mhe_dev = mae_dev = rmse_dev = 0.0
    ordering = True
    for (drift, spot), refs in T7_SIM.items():
        summaries = [
            run_hedge_sim(
                SimConfig(
                    spot=spot, drift=drift, paths=paths, seed=seed,
                    hedge=DEFAULT_HEDGE, scheme=scheme,
                ),
            )
            for scheme in (HedgeScheme.BSM_DUAL, HedgeScheme.WU_ZHU)
        ]
        for summary, (mhe_ref, mae_ref, rmse_ref) in zip(
            summaries, (refs[:3], refs[3:])
        ):
            mhe_dev = max(mhe_dev, abs(summary.mhe_pct - mhe_ref))
            mae_dev = max(mae_dev, abs(summary.mae_pct - mae_ref))
            rmse_dev = max(rmse_dev, abs(summary.rmse - rmse_ref))
        ordering = ordering and summaries[0].rmse < summaries[1].rmse
    elapsed = time.perf_counter() - started
    ok = (
        mhe_dev <= 0.5
        and mae_dev <= 1.0
        and rmse_dev <= 0.015
        and ordering
        and elapsed < 10.0
    )
    report(
        capsys,
        f"ACCEPTANCE 6 simulated hedge errors: {'PASS' if ok else 'FAIL'} "
        f"(dev MHE {mhe_dev:.2f}pp <= 0.5, MAE {mae_dev:.2f}pp <= 1.0, "
        f"RMSE {rmse_dev:.4f} <= 0.015, full-scheme RMSE lower on all rows: "
        f"{ordering}, {elapsed:.2f}s)",
    )
    assert mhe_dev <= 0.5
    assert mae_dev <= 1.0
    assert rmse_dev <= 0.015
    assert ordering
    assert elapsed < 10.0


def _benign_draws(seed, count):
    rng = np.random.default_rng(seed)
    spot = rng.uniform(20.0, 150.0, count)
    strike = spot * np.exp(rng.uniform(-0.4, 0.4, count))
    rate = rng.uniform(-0.02, 0.10, count)
    dividend_yield = rng.uniform(-0.02, 0.10, count)
    maturity = rng.uniform(0.25, 2.5, count)
    vol = np.maximum(rng.uniform(0.1, 0.6, count), 0.2 / np.sqrt(maturity))
    return spot, strike, rate, dividend_yield, vol, maturity


def _put_values(spot, strike, rate, dividend_yield, vol, maturity):
    """Closed-form puts over arrays, one ``bsm_valuation`` per element."""
    return np.array(
        [
            bsm_valuation(
                OptionSpec(OptionRight.PUT, ExerciseStyle.EUROPEAN, k, t),
                MarketState(s, r, q, v),
            )[0]
            for s, k, r, q, v, t in np.broadcast(
                spot, strike, rate, dividend_yield, vol, maturity
            )
        ]
    )


def test_criterion_7_identity_suite(capsys):
    s, k, r, q, vol, t = _benign_draws(20260814, 1000)
    checks = {}

    call = call_price(s, k, r, q, vol, t)
    put = _put_values(s, k, r, q, vol, t)
    parity = call - put - (s * np.exp(-q * t) - k * np.exp(-r * t))
    checks["parity"] = float(np.max(np.abs(parity)))

    dual_call = call_price(k, s, q, r, vol, t)
    dual_put = _put_values(k, s, q, r, vol, t)
    checks["dual"] = float(
        max(np.max(np.abs(put - dual_call)), np.max(np.abs(call - dual_put)))
    )

    hs = 1e-5 * s
    hk = 1e-5 * k
    v_s = (call_price(s + hs, k, r, q, vol, t) - call_price(s - hs, k, r, q, vol, t)) / (
        2 * hs
    )
    v_k = (call_price(s, k + hk, r, q, vol, t) - call_price(s, k - hk, r, q, vol, t)) / (
        2 * hk
    )
    euler = np.abs(s * v_s + k * v_k - call) / np.maximum(np.abs(call), 1e-8)
    checks["euler"] = float(np.max(euler))

    hs2 = 1e-3 * s
    hk2 = 1e-3 * k
    v_ss = (
        call_price(s + hs2, k, r, q, vol, t)
        - 2 * call
        + call_price(s - hs2, k, r, q, vol, t)
    ) / hs2**2
    v_kk = (
        call_price(s, k + hk2, r, q, vol, t)
        - 2 * call
        + call_price(s, k - hk2, r, q, vol, t)
    ) / hk2**2
    curvature = np.abs(s**2 * v_ss - k**2 * v_kk) / np.maximum(
        np.abs(s**2 * v_ss), 1e-8
    )
    checks["curvature"] = float(np.max(curvature))

    spec = OptionSpec(OptionRight.PUT, ExerciseStyle.EUROPEAN, 45.0, 0.75)
    mkt = MarketState(52.0, 0.04, 0.01, 0.3)
    involution_ok = to_dual(*to_dual(spec, mkt)) == (spec, mkt)

    stripped = replace(
        DEFAULT_HEDGE,
        rate=0.0,
        dividend_yield=0.0,
        horizon=DEFAULT_HEDGE.wing_maturity,
    )
    full = solve_weights(stripped, HedgeScheme.BSM_DUAL)
    special = solve_weights(DEFAULT_HEDGE, HedgeScheme.WU_ZHU)
    checks["degeneration"] = max(
        abs(full.w_low - special.w_low),
        abs(full.w_mid - special.w_mid),
        abs(full.w_high - special.w_high),
    )

    co = dual_coefficients(DEFAULT_HEDGE)
    w = solve_weights(DEFAULT_HEDGE, HedgeScheme.BSM_DUAL)
    weights = (w.w_low, w.w_mid, w.w_high)
    hs3 = (co.h_low, co.h_mid, co.h_high)
    alphas = (co.alpha_wing, co.alpha_mid, co.alpha_wing)
    rows = (
        sum(wt * (1.0 + co.gamma * h**2) for wt, h in zip(weights, hs3)) - 1.0,
        sum(wt * (1.0 + co.beta * h) * h for wt, h in zip(weights, hs3)),
        sum(wt * (h**2 - a) for wt, h, a in zip(weights, hs3, alphas)) - 1.0,
    )
    checks["rows"] = max(abs(v) for v in rows)

    sim_cfg = SimConfig(
        spot=50.0, drift=0.04, paths=400, seed=11,
        hedge=DEFAULT_HEDGE, scheme=HedgeScheme.BSM_DUAL,
    )
    deterministic = run_hedge_sim(sim_cfg) == run_hedge_sim(sim_cfg)

    ok = (
        checks["parity"] < 1e-12
        and checks["dual"] < 1e-12
        and checks["euler"] <= 1e-4
        and checks["curvature"] <= 1e-4
        and involution_ok
        and checks["degeneration"] < 1e-12
        and checks["rows"] < 1e-12
        and deterministic
    )
    report(
        capsys,
        f"ACCEPTANCE 7 identity suite: {'PASS' if ok else 'FAIL'} "
        f"(parity {checks['parity']:.1e}, dual {checks['dual']:.1e}, "
        f"euler {checks['euler']:.1e}, curvature {checks['curvature']:.1e}, "
        f"involution {involution_ok}, degeneration {checks['degeneration']:.1e}, "
        f"rows {checks['rows']:.1e}, deterministic {deterministic})",
    )
    assert checks["parity"] < 1e-12
    assert checks["dual"] < 1e-12
    assert checks["euler"] <= 1e-4
    assert checks["curvature"] <= 1e-4
    assert involution_ok
    assert checks["degeneration"] < 1e-12
    assert checks["rows"] < 1e-12
    assert deterministic


def test_acceptance_constants_are_self_consistent():
    # guard against typos in the golden tables above
    assert len(T1_PUT) == len(T1_CALL) == len(SPOTS)
    assert all(len(v) == 5 for v in T3_ERR_PCT.values())
    assert len(T4_GROSS) == len(T5_COST) == 11
    assert len(T6_TRUE) == 9
    assert len(T7_SIM) == 10
    assert math.isclose(DEFAULT_HEDGE.horizon, 1.0 / 12.0 - 5.0 / 365.0)
