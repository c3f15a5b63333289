"""Closed-form pricing: golden values, parity, duality, and FD Greeks."""

import math

import numpy as np
import pytest

from dualpricer import (
    D1D2,
    ExerciseStyle,
    MarketState,
    OptionRight,
    OptionSpec,
    PricingError,
    UnsupportedStyleError,
    bsm_delta,
    bsm_gamma,
    bsm_price,
    call_price,
    d1_d2,
    put_price,
)


def euro(right, strike=40.0, maturity=1.0):
    return OptionSpec(right, ExerciseStyle.EUROPEAN, strike, maturity)


def random_params(seed, count):
    """Benign draws: moneyness and vol bounded away from the FD-hostile tails."""
    rng = np.random.default_rng(seed)
    spot = rng.uniform(20.0, 150.0, count)
    strike = spot * np.exp(rng.uniform(-0.4, 0.4, count))
    rate = rng.uniform(-0.02, 0.10, count)
    div = rng.uniform(-0.02, 0.10, count)
    vol = rng.uniform(0.15, 0.60, count)
    maturity = rng.uniform(0.25, 2.5, count)
    vol = np.maximum(vol, 0.2 / np.sqrt(maturity))
    return spot, strike, rate, div, vol, maturity


def test_d1_d2_atm_symmetric():
    mkt = MarketState(100.0, 0.03, 0.03, 0.2)
    d = d1_d2(mkt, 100.0, 1.0)
    assert d.d1 == pytest.approx(0.1, abs=1e-15)
    assert d.d2 == pytest.approx(-0.1, abs=1e-15)


def test_d1_d2_frozen_value():
    mkt = MarketState(50.0, 0.05, 0.01, 0.20)
    d = d1_d2(mkt, 50.0, 0.5)
    assert d.d1 == pytest.approx(0.2121320343559642, abs=1e-15)
    assert d.d2 == pytest.approx(0.07071067811865467, abs=1e-15)


def test_d1_d2_difference_is_sig_sqrt_t():
    for seed in range(5):
        spot, strike, rate, div, vol, mat = random_params(seed, 50)
        for i in range(50):
            mkt = MarketState(spot[i], rate[i], div[i], vol[i])
            d = d1_d2(mkt, strike[i], mat[i])
            assert d.d1 - d.d2 == pytest.approx(
                vol[i] * math.sqrt(mat[i]), rel=1e-12
            )


def test_d1_d2_dual_negation():
    mkt = MarketState(50.0, 0.05, 0.01, 0.20)
    d = d1_d2(mkt, 42.0, 0.5)
    swapped = MarketState(42.0, 0.01, 0.05, 0.20)
    dual = d1_d2(swapped, 50.0, 0.5)
    assert dual.d1 == pytest.approx(-d.d2, abs=1e-12)
    assert dual.d2 == pytest.approx(-d.d1, abs=1e-12)


def test_d1_d2_rejects_degenerate_maturity():
    mkt = MarketState(50.0, 0.05, 0.01, 0.20)
    with pytest.raises(PricingError):
        d1_d2(mkt, 50.0, 0.0)
    with pytest.raises(PricingError):
        d1_d2(mkt, -1.0, 0.5)


def test_market_state_validation():
    with pytest.raises(PricingError):
        MarketState(-1.0, 0.0, 0.0, 0.2)
    with pytest.raises(PricingError):
        MarketState(50.0, 0.0, 0.0, 0.0)
    with pytest.raises(PricingError):
        MarketState(50.0, math.inf, 0.0, 0.2)
    with pytest.raises(PricingError):
        MarketState(math.inf, 0.0, 0.0, 0.2)
    with pytest.raises(PricingError):
        MarketState(50.0, 0.0, 0.0, math.inf)


def test_option_spec_validation():
    with pytest.raises(PricingError):
        OptionSpec(OptionRight.CALL, ExerciseStyle.EUROPEAN, 0.0, 1.0)
    with pytest.raises(PricingError):
        OptionSpec(OptionRight.CALL, ExerciseStyle.EUROPEAN, 40.0, -0.5)
    with pytest.raises(PricingError):
        OptionSpec(OptionRight.CALL, ExerciseStyle.EUROPEAN, math.inf, 1.0)
    with pytest.raises(PricingError):
        OptionSpec(OptionRight.CALL, ExerciseStyle.EUROPEAN, 40.0, math.inf)


@pytest.mark.parametrize(
    "strike,expected",
    [(36.0, 9.391), (40.0, 7.389)],
)
def test_call_price_golden(strike, expected):
    mkt = MarketState(40.0, 0.06, 0.0, 0.40)
    price = bsm_price(euro(OptionRight.CALL, strike=strike), mkt)
    assert price == pytest.approx(expected, abs=5e-4)


def test_deep_itm_call_limit():
    mkt = MarketState(80.0, 0.04, 0.01, 0.001)
    price = bsm_price(euro(OptionRight.CALL, strike=40.0), mkt)
    forward_intrinsic = 80.0 * math.exp(-0.01) - 40.0 * math.exp(-0.04)
    assert price == pytest.approx(forward_intrinsic, rel=1e-12)


def test_rejects_american_style():
    mkt = MarketState(40.0, 0.06, 0.0, 0.40)
    spec = OptionSpec(OptionRight.PUT, ExerciseStyle.AMERICAN, 40.0, 1.0)
    for fn in (bsm_price, bsm_delta, bsm_gamma):
        with pytest.raises(UnsupportedStyleError):
            fn(spec, mkt)


def test_put_call_parity_random():
    spot, strike, rate, div, vol, mat = random_params(7, 500)
    call = call_price(spot, strike, rate, div, vol, mat)
    put = put_price(spot, strike, rate, div, vol, mat)
    forward = spot * np.exp(-div * mat) - strike * np.exp(-rate * mat)
    assert np.max(np.abs(call - put - forward)) < 1e-12


def test_dual_equality_both_directions():
    spot, strike, rate, div, vol, mat = random_params(11, 500)
    put = put_price(spot, strike, rate, div, vol, mat)
    dual_call = call_price(strike, spot, div, rate, vol, mat)
    assert np.max(np.abs(put - dual_call)) < 1e-12
    call = call_price(spot, strike, rate, div, vol, mat)
    dual_put = put_price(strike, spot, div, rate, vol, mat)
    assert np.max(np.abs(call - dual_put)) < 1e-12


@pytest.mark.parametrize("right", [OptionRight.CALL, OptionRight.PUT])
def test_delta_gamma_match_finite_differences(right):
    spot, strike, rate, div, vol, mat = random_params(13, 60)
    for i in range(60):
        mkt = MarketState(spot[i], rate[i], div[i], vol[i])
        spec = euro(right, strike=strike[i], maturity=mat[i])
        h = 1e-4 * spot[i]
        up = MarketState(spot[i] + h, rate[i], div[i], vol[i])
        dn = MarketState(spot[i] - h, rate[i], div[i], vol[i])
        fd_delta = (bsm_price(spec, up) - bsm_price(spec, dn)) / (2 * h)
        fd_gamma = (
            bsm_price(spec, up) - 2 * bsm_price(spec, mkt) + bsm_price(spec, dn)
        ) / h**2
        assert bsm_delta(spec, mkt) == pytest.approx(fd_delta, rel=1e-6)
        assert bsm_gamma(spec, mkt) == pytest.approx(fd_gamma, rel=1e-6)


def test_delta_identity_and_gamma_right_independence():
    mkt = MarketState(55.0, 0.04, 0.02, 0.3)
    call = euro(OptionRight.CALL, strike=50.0, maturity=0.75)
    put = euro(OptionRight.PUT, strike=50.0, maturity=0.75)
    assert bsm_delta(call, mkt) - bsm_delta(put, mkt) == pytest.approx(
        math.exp(-0.02 * 0.75), rel=1e-12
    )
    assert bsm_gamma(call, mkt) == pytest.approx(bsm_gamma(put, mkt), rel=1e-14)


def test_atm_forward_call_delta():
    vol, mat, div = 0.3, 0.8, 0.02
    spot = 60.0
    strike = spot * math.exp((0.05 - div) * mat)
    mkt = MarketState(spot, 0.05, div, vol)
    from scipy.special import ndtr

    expected = math.exp(-div * mat) * ndtr(0.5 * vol * math.sqrt(mat))
    got = bsm_delta(euro(OptionRight.CALL, strike=strike, maturity=mat), mkt)
    assert got == pytest.approx(expected, rel=1e-12)


def _strike_fd(prices_fn, spot, strike, rate, div, vol, mat, h):
    up = prices_fn(spot, strike + h, rate, div, vol, mat)
    dn = prices_fn(spot, strike - h, rate, div, vol, mat)
    return (up - dn) / (2 * h)


def test_euler_relation_european():
    spot, strike, rate, div, vol, mat = random_params(17, 400)
    h = 1e-5 * strike
    for fn, delta_sign in ((call_price, OptionRight.CALL), (put_price, OptionRight.PUT)):
        value = fn(spot, strike, rate, div, vol, mat)
        dv_dk = _strike_fd(fn, spot, strike, rate, div, vol, mat, h)
        if fn is call_price:
            deltas = np.array(
                [
                    bsm_delta(
                        euro(OptionRight.CALL, strike=strike[i], maturity=mat[i]),
                        MarketState(spot[i], rate[i], div[i], vol[i]),
                    )
                    for i in range(len(spot))
                ]
            )
        else:
            deltas = np.array(
                [
                    bsm_delta(
                        euro(OptionRight.PUT, strike=strike[i], maturity=mat[i]),
                        MarketState(spot[i], rate[i], div[i], vol[i]),
                    )
                    for i in range(len(spot))
                ]
            )
        residual = value - spot * deltas - strike * dv_dk
        scale = np.maximum(np.abs(value), 1e-8)
        assert np.max(np.abs(residual) / scale) < 1e-6


def test_second_derivative_identity():
    spot, strike, rate, div, vol, mat = random_params(19, 400)
    h = 1e-3 * strike
    for fn in (call_price, put_price):
        up = fn(spot, strike + h, rate, div, vol, mat)
        mid = fn(spot, strike, rate, div, vol, mat)
        dn = fn(spot, strike - h, rate, div, vol, mat)
        v_kk = (up - 2 * mid + dn) / h**2
        gammas = np.array(
            [
                bsm_gamma(
                    euro(OptionRight.CALL, strike=strike[i], maturity=mat[i]),
                    MarketState(spot[i], rate[i], div[i], vol[i]),
                )
                for i in range(len(spot))
            ]
        )
        lhs = spot**2 * gammas
        rhs = strike**2 * v_kk
        assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-10)) < 1e-4
