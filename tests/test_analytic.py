"""Closed-form pricing: golden values, parity, duality, and FD Greeks."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from dualpricer import (
    AnalyticEngine,
    ExerciseStyle,
    MarketState,
    OptionRight,
    OptionSpec,
    PricingError,
    UnsupportedStyleError,
    bsm_price,
    bsm_valuation,
    call_price,
    d1_d2,
    put_price,
    to_dual,
    valuation_via_dual,
)
from dualpricer.analytic import _MAXLOG, _ONE_AT, _ndtr1


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
    d1, d2 = d1_d2(100.0, 100.0, 0.03, 0.03, 0.2, 1.0)
    assert d1 == pytest.approx(0.1, abs=1e-15)
    assert d2 == pytest.approx(-0.1, abs=1e-15)


def test_d1_d2_frozen_value():
    d1, d2 = d1_d2(50.0, 50.0, 0.05, 0.01, 0.20, 0.5)
    assert d1 == pytest.approx(0.2121320343559642, abs=1e-15)
    assert d2 == pytest.approx(0.07071067811865467, abs=1e-15)


def test_d1_d2_difference_is_sig_sqrt_t():
    for seed in range(5):
        spot, strike, rate, div, vol, mat = random_params(seed, 50)
        d1, d2 = d1_d2(spot, strike, rate, div, vol, mat)
        assert d1 - d2 == pytest.approx(vol * np.sqrt(mat), rel=1e-12)


def test_d1_d2_dual_negation():
    d1, d2 = d1_d2(50.0, 42.0, 0.05, 0.01, 0.20, 0.5)
    dual_d1, dual_d2 = d1_d2(42.0, 50.0, 0.01, 0.05, 0.20, 0.5)
    assert dual_d1 == pytest.approx(-d2, abs=1e-12)
    assert dual_d2 == pytest.approx(-d1, abs=1e-12)


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


def test_huge_vol_limits():
    # sigma sqrt(T) -> inf: the call is worth the forward, the put the bond
    mkt = MarketState(36.0, 0.06, 0.02, 1e150)
    call = bsm_valuation(euro(OptionRight.CALL), mkt)
    put = bsm_valuation(euro(OptionRight.PUT), mkt)
    assert call == pytest.approx((36.0 * math.exp(-0.02), math.exp(-0.02), 0.0), rel=1e-15)
    assert put == pytest.approx((40.0 * math.exp(-0.06), 0.0, 0.0), rel=1e-15)


@pytest.mark.parametrize(
    "mkt,strike",
    [
        (MarketState(36.0, 0.06, 0.0, 1e200), 40.0),
        (MarketState(36.0, -1e300, 0.0, 0.2), 40.0),
        (MarketState(36.0, 0.06, -1e300, 0.2), 40.0),
        (MarketState(1e-300, 0.06, 0.0, 0.2), 1e300),
    ],
    ids=["huge-vol", "huge-negative-rate", "huge-negative-yield", "extreme-moneyness"],
)
@pytest.mark.parametrize("right", [OptionRight.CALL, OptionRight.PUT])
def test_valuation_beyond_float_range_raises(mkt, strike, right):
    with pytest.raises(PricingError, match="float range"):
        bsm_valuation(euro(right, strike=strike), mkt)


def test_rejects_american_style():
    mkt = MarketState(40.0, 0.06, 0.0, 0.40)
    spec = OptionSpec(OptionRight.PUT, ExerciseStyle.AMERICAN, 40.0, 1.0)
    for fn in (bsm_valuation, bsm_price):
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
        assert bsm_valuation(spec, mkt)[1] == pytest.approx(fd_delta, rel=1e-6)
        assert bsm_valuation(spec, mkt)[2] == pytest.approx(fd_gamma, rel=1e-6)


def test_delta_identity_and_gamma_right_independence():
    mkt = MarketState(55.0, 0.04, 0.02, 0.3)
    call = euro(OptionRight.CALL, strike=50.0, maturity=0.75)
    put = euro(OptionRight.PUT, strike=50.0, maturity=0.75)
    assert bsm_valuation(call, mkt)[1] - bsm_valuation(put, mkt)[1] == pytest.approx(
        math.exp(-0.02 * 0.75), rel=1e-12
    )
    assert bsm_valuation(call, mkt)[2] == pytest.approx(
        bsm_valuation(put, mkt)[2], rel=1e-14
    )


def test_atm_forward_call_delta():
    vol, mat, div = 0.3, 0.8, 0.02
    spot = 60.0
    strike = spot * math.exp((0.05 - div) * mat)
    mkt = MarketState(spot, 0.05, div, vol)
    from scipy.special import ndtr

    expected = math.exp(-div * mat) * ndtr(0.5 * vol * math.sqrt(mat))
    got = bsm_valuation(euro(OptionRight.CALL, strike=strike, maturity=mat), mkt)[1]
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
                    bsm_valuation(
                        euro(OptionRight.CALL, strike=strike[i], maturity=mat[i]),
                        MarketState(spot[i], rate[i], div[i], vol[i]),
                    )[1]
                    for i in range(len(spot))
                ]
            )
        else:
            deltas = np.array(
                [
                    bsm_valuation(
                        euro(OptionRight.PUT, strike=strike[i], maturity=mat[i]),
                        MarketState(spot[i], rate[i], div[i], vol[i]),
                    )[1]
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
                bsm_valuation(
                    euro(OptionRight.CALL, strike=strike[i], maturity=mat[i]),
                    MarketState(spot[i], rate[i], div[i], vol[i]),
                )[2]
                for i in range(len(spot))
            ]
        )
        lhs = spot**2 * gammas
        rhs = strike**2 * v_kk
        assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-10)) < 1e-4


def reference_call_price(spot, strike, rate, dividend_yield, vol, maturity):
    """The closed-form call as written before d1 had one implementation."""
    sig_sqrt_t = vol * np.sqrt(maturity)
    d1 = (
        np.log(spot / strike) + (rate - dividend_yield + 0.5 * vol**2) * maturity
    ) / sig_sqrt_t
    d2 = d1 - vol * np.sqrt(maturity)
    return spot * np.exp(-dividend_yield * maturity) * ndtr(d1) - strike * np.exp(
        -rate * maturity
    ) * ndtr(d2)


def reference_put_price(spot, strike, rate, dividend_yield, vol, maturity):
    """The closed-form put as written before d1 had one implementation."""
    sig_sqrt_t = vol * np.sqrt(maturity)
    d1 = (
        np.log(spot / strike) + (rate - dividend_yield + 0.5 * vol**2) * maturity
    ) / sig_sqrt_t
    d2 = d1 - vol * np.sqrt(maturity)
    return strike * np.exp(-rate * maturity) * ndtr(-d2) - spot * np.exp(
        -dividend_yield * maturity
    ) * ndtr(-d1)


def bits(values):
    """Bit patterns of floats, so 0.0 and -0.0 compare unequal."""
    return [struct.pack("<d", float(v)) for v in np.ravel(values)]


def wide_inputs():
    """Valid closed-form inputs, deep in and out of the money included."""
    return st.tuples(
        st.floats(1e-3, 1e4),
        st.floats(1e-3, 1e4),
        st.floats(-0.2, 0.5),
        st.floats(-0.2, 0.5),
        st.floats(1e-3, 5.0),
        st.floats(1e-4, 50.0),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(wide_inputs(), min_size=1, max_size=8))
@example([(100.0, 1.0, 0.05, 0.0, 0.1, 0.25)])  # a put worth exactly 0.0
@example([(1.0, 100.0, 0.05, 0.0, 0.1, 0.25)])  # a call worth exactly 0.0
def test_prices_match_reference_bit_for_bit(rows):
    for row in rows:
        assert bits(call_price(*row)) == bits(reference_call_price(*row))
        assert bits(put_price(*row)) == bits(reference_put_price(*row))
    columns = [np.array(column) for column in zip(*rows)]
    assert bits(call_price(*columns)) == bits(reference_call_price(*columns))
    assert bits(put_price(*columns)) == bits(reference_put_price(*columns))
    out, scratch = np.empty(len(rows)), np.empty(len(rows))
    buffered = call_price(*columns, out=out, scratch=scratch)
    assert bits(buffered) == bits(reference_call_price(*columns))


def test_ndtr_is_exactly_one_from_the_skip_threshold():
    # the buffered call_price takes N(d) = 1.0 without evaluating ndtr
    # wherever d >= _ONE_AT
    rng = np.random.default_rng(2019)
    for d in (
        np.linspace(_ONE_AT, 40.0, 1_000_001),
        10.0 ** rng.uniform(math.log10(_ONE_AT), 307.0, 1_000_000),
        np.array([1e307, math.inf]),
    ):
        assert np.all(ndtr(d) == 1.0)


def ulp_sweep(centre, count):
    """The doubles within ``count`` units in the last place of ``centre``."""
    bits = np.array(centre).view(np.int64) + np.arange(-count, count + 1)
    return bits.view(np.float64)


def test_scalar_ndtr_keeps_scipys_bits():
    # bit patterns compared, so 0.0 and -0.0 differ and so does a NaN's
    # sign: random patterns over the whole double range, NaNs with
    # payloads among them; the special values and subnormals; and sweeps
    # across each branch point of z = |a|/sqrt 2 (1, 8, and the underflow
    # at sqrt(MAXLOG)), on both sides of 0
    rng = np.random.default_rng(1989)
    tiny = np.finfo(float).smallest_subnormal
    subnormals = rng.integers(1, 1 << 52, 1000, dtype=np.uint64).view(np.float64)
    cases = [
        rng.integers(0, 1 << 64, 1_000_000, dtype=np.uint64).view(np.float64),
        np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, tiny, -tiny]),
        np.concatenate([subnormals, -subnormals]),
    ]
    for z in (1.0, 8.0, math.sqrt(_MAXLOG)):
        a = z * math.sqrt(2.0)
        cases += [ulp_sweep(a, 200_000), ulp_sweep(-a, 200_000)]
    for a in cases:
        port = np.array([_ndtr1(x) for x in a.tolist()])
        differ = np.nonzero(port.view(np.uint64) != ndtr(a).view(np.uint64))[0]
        assert differ.size == 0, (differ.size, a[differ[:5]].tolist())


WING_TENOR = 5.0 / 365.0
BUFFERED_CASES = {
    # the low-strike call at the hedge's wing tenor: d2 straddles _ONE_AT
    "straddles": (np.linspace(30.0, 70.0, 4001), 40.0, WING_TENOR),
    "below": (np.linspace(30.0, 70.0, 4001), 50.0, 0.5),
    "extremes": (np.array([1e-300, 1e300, 1e-300, 45.0]), 40.0, WING_TENOR),
    # a 0-d spot deep in the money: every d2 is above _ONE_AT
    "deep-0d": (np.array(100.0), 40.0, 0.01),
}


@pytest.mark.parametrize("case", BUFFERED_CASES)
def test_buffered_call_price_keeps_the_bits(case):
    spots, strike, maturity = BUFFERED_CASES[case]
    args = (spots, strike, 0.05, 0.01, 0.2, maturity)
    d2 = d1_d2(*args)[1]
    reaches = (np.min(d2) < _ONE_AT, _ONE_AT <= np.max(d2))
    assert reaches == {"below": (True, False), "deep-0d": (False, True)}.get(case, (True, True))
    kept = spots.copy()
    out, scratch = np.empty_like(spots), np.empty_like(spots)
    assert call_price(*args, out=out, scratch=scratch) is out
    assert bits(out) == bits(call_price(*args))
    assert spots.tobytes() == kept.tobytes()


def test_buffered_call_price_keeps_a_nan():
    spots = np.array([45.0, 60.0, math.nan, 70.0])  # d2 > _ONE_AT at 60 and 70
    args = (spots, 40.0, 0.05, 0.01, 0.2, WING_TENOR)
    out = call_price(*args, out=np.empty(4), scratch=np.empty(4))
    assert math.isnan(out[2])
    assert bits(out) == bits(call_price(*args))


@st.composite
def europeans(draw):
    """One European contract and market from the ``random_params`` domain."""
    spot = draw(st.floats(20.0, 150.0))
    strike = spot * math.exp(draw(st.floats(-0.4, 0.4)))
    maturity = draw(st.floats(0.25, 2.5))
    vol = max(draw(st.floats(0.15, 0.60)), 0.2 / math.sqrt(maturity))
    right = draw(st.sampled_from(OptionRight))
    mkt = MarketState(
        spot, draw(st.floats(-0.02, 0.10)), draw(st.floats(-0.02, 0.10)), vol
    )
    return euro(right, strike=strike, maturity=maturity), mkt


@settings(max_examples=200, deadline=None)
@given(europeans())
def test_valuation_is_price_delta_gamma(contract):
    # bsm_price is the one projection left; a Greek is an index into the tuple
    spec, mkt = contract
    assert bsm_valuation(spec, mkt)[0] == bsm_price(spec, mkt)


@settings(max_examples=200, deadline=None)
@given(europeans())
def test_put_call_parity_property(contract):
    spec, mkt = contract
    call = bsm_price(euro(OptionRight.CALL, spec.strike, spec.maturity), mkt)
    put = bsm_price(euro(OptionRight.PUT, spec.strike, spec.maturity), mkt)
    forward = mkt.spot * math.exp(-mkt.dividend_yield * spec.maturity) - spec.strike * (
        math.exp(-mkt.rate * spec.maturity)
    )
    assert abs(call - put - forward) < 1e-12


@settings(max_examples=200, deadline=None)
@given(europeans())
def test_valuation_via_dual_property(contract):
    spec, mkt = contract
    price, delta, gamma = bsm_valuation(spec, mkt)
    via_price, via_delta, via_gamma = valuation_via_dual(spec, mkt, AnalyticEngine())
    assert via_price == pytest.approx(price, abs=1e-12)
    assert via_delta == pytest.approx(delta, abs=1e-10)
    assert via_gamma == pytest.approx(gamma, abs=1e-8)


@settings(max_examples=200, deadline=None)
@given(europeans())
def test_to_dual_involution_property(contract):
    spec, mkt = contract
    assert to_dual(*to_dual(spec, mkt)) == (spec, mkt)


@settings(max_examples=200, deadline=None)
@given(europeans())
def test_euler_identity_property(contract):
    # V = S delta + K delta~, with delta~ the swapped problem's delta
    spec, mkt = contract
    price, delta, _ = bsm_valuation(spec, mkt)
    dual_delta = bsm_valuation(*to_dual(spec, mkt))[1]
    assert mkt.spot * delta + spec.strike * dual_delta == pytest.approx(
        price, rel=1e-10
    )
