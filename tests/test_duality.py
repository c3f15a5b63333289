"""Swapped-problem pricing: transform algebra, engine equality, Greeks."""

import numpy as np
import pytest

from dualpricer import (
    AnalyticEngine,
    Exactness,
    ExerciseStyle,
    LatticeEngine,
    MarketState,
    OptionRight,
    OptionSpec,
    PricingError,
    UnsupportedStyleError,
    bsm_delta,
    bsm_gamma,
    bsm_price,
    call_price,
    delta_via_dual,
    gamma_via_dual,
    lattice_delta,
    lattice_gamma,
    lattice_price,
    price_currency_put_approx,
    price_via_dual,
    put_price,
    to_dual,
)

SPOTS = (36.0, 38.0, 40.0, 42.0, 44.0)


def spec_of(right, style, strike=40.0, maturity=1.0):
    return OptionSpec(right, style, strike, maturity)


def test_to_dual_swaps_roles():
    spec = spec_of(OptionRight.PUT, ExerciseStyle.AMERICAN, strike=50.0)
    mkt = MarketState(40.0, 0.06, 0.0, 0.40)
    dual_spec, dual_mkt = to_dual(spec, mkt).dual
    assert dual_spec.right is OptionRight.CALL
    assert dual_spec.style is ExerciseStyle.AMERICAN
    assert dual_spec.strike == 40.0
    assert dual_spec.maturity == spec.maturity
    assert dual_mkt.spot == 50.0
    assert dual_mkt.rate == 0.0
    assert dual_mkt.dividend_yield == 0.06
    assert dual_mkt.vol == mkt.vol


def test_to_dual_is_involution():
    spec = spec_of(OptionRight.CALL, ExerciseStyle.EUROPEAN, strike=55.0, maturity=0.7)
    mkt = MarketState(48.0, 0.02, 0.05, 0.33)
    once = to_dual(spec, mkt).dual
    twice = to_dual(*once).dual
    assert twice == (spec, mkt)


def test_to_dual_fixed_point_up_to_right():
    spec = spec_of(OptionRight.CALL, ExerciseStyle.EUROPEAN, strike=50.0)
    mkt = MarketState(50.0, 0.03, 0.03, 0.25)
    dual_spec, dual_mkt = to_dual(spec, mkt).dual
    assert dual_mkt == mkt
    assert dual_spec.right is OptionRight.PUT
    assert (dual_spec.strike, dual_spec.maturity) == (50.0, 1.0)


@pytest.mark.parametrize("right", [OptionRight.CALL, OptionRight.PUT])
def test_analytic_dual_price_identity(right):
    engine = AnalyticEngine()
    rng = np.random.default_rng(3)
    for _ in range(100):
        spec = spec_of(
            right,
            ExerciseStyle.EUROPEAN,
            strike=float(rng.uniform(20, 120)),
            maturity=float(rng.uniform(0.1, 2.0)),
        )
        mkt = MarketState(
            float(rng.uniform(20, 120)),
            float(rng.uniform(-0.02, 0.1)),
            float(rng.uniform(-0.02, 0.1)),
            float(rng.uniform(0.1, 0.6)),
        )
        direct = bsm_price(spec, mkt)
        assert price_via_dual(spec, mkt, engine) == pytest.approx(direct, abs=1e-12)


def test_analytic_dual_greeks_match_closed_form():
    engine = AnalyticEngine()
    spec = spec_of(OptionRight.PUT, ExerciseStyle.EUROPEAN, strike=45.0, maturity=0.8)
    mkt = MarketState(52.0, 0.04, 0.015, 0.3)
    assert delta_via_dual(spec, mkt, engine) == pytest.approx(
        bsm_delta(spec, mkt), abs=1e-10
    )
    assert gamma_via_dual(spec, mkt, engine) == pytest.approx(
        bsm_gamma(spec, mkt), abs=1e-8
    )


def test_lattice_dual_price_equality_on_grid():
    engine = LatticeEngine(365)
    spec = spec_of(OptionRight.PUT, ExerciseStyle.AMERICAN)
    for spot in SPOTS:
        mkt = MarketState(spot, 0.06, 0.0, 0.40)
        direct = lattice_price(spec, mkt, 365)
        dual = price_via_dual(spec, mkt, engine)
        assert abs(dual - direct) / direct < 3e-4


def test_lattice_dual_greeks_close_to_direct():
    engine = LatticeEngine(365)
    spec = spec_of(OptionRight.PUT, ExerciseStyle.AMERICAN)
    for spot in SPOTS:
        mkt = MarketState(spot, 0.06, 0.0, 0.40)
        d_direct = lattice_delta(spec, mkt, 365)
        g_direct = lattice_gamma(spec, mkt, 365)
        assert abs(delta_via_dual(spec, mkt, engine) - d_direct) / abs(d_direct) < 3e-4
        assert abs(gamma_via_dual(spec, mkt, engine) - g_direct) / abs(g_direct) < 3e-4


def test_dual_delta_is_strike_derivative():
    # the swapped problem's delta is the original price's strike sensitivity
    engine = AnalyticEngine()
    spec = spec_of(OptionRight.PUT, ExerciseStyle.EUROPEAN, strike=45.0, maturity=0.8)
    mkt = MarketState(52.0, 0.04, 0.015, 0.3)
    dual_spec, dual_mkt = to_dual(spec, mkt).dual
    dual_delta = engine.delta(dual_spec, dual_mkt)
    h = 1e-5 * spec.strike
    fd = (
        put_value(mkt, spec.strike + h, spec.maturity)
        - put_value(mkt, spec.strike - h, spec.maturity)
    ) / (2 * h)
    assert dual_delta == pytest.approx(fd, rel=1e-4)
    value = bsm_price(spec, mkt)
    euler = mkt.spot * bsm_delta(spec, mkt) + spec.strike * dual_delta
    assert euler == pytest.approx(value, rel=1e-10)


def put_value(mkt, strike, maturity):
    return float(
        put_price(mkt.spot, strike, mkt.rate, mkt.dividend_yield, mkt.vol, maturity)
    )


def test_currency_put_exact_when_rate_zero():
    spec = spec_of(OptionRight.PUT, ExerciseStyle.AMERICAN)
    mkt = MarketState(36.0, 0.0, 0.06, 0.40)
    price, tag = price_currency_put_approx(spec, mkt)
    assert tag is Exactness.EXACT
    assert price == pytest.approx(9.391, abs=5e-4)
    assert price == pytest.approx(
        lattice_price(spec, mkt, 365), rel=3.5e-4
    )


def test_currency_put_exact_when_rate_negative_and_foreign_rate_positive():
    # no early exercise: the 2000-step American tree equals the European one
    spec = spec_of(OptionRight.PUT, ExerciseStyle.AMERICAN)
    mkt = MarketState(36.0, -0.02, 0.06, 0.20)
    price, tag = price_currency_put_approx(spec, mkt)
    assert tag is Exactness.EXACT
    american = lattice_price(spec, mkt, 2000)
    european = lattice_price(
        spec_of(OptionRight.PUT, ExerciseStyle.EUROPEAN), mkt, 2000
    )
    assert american == european
    assert price == pytest.approx(american, abs=1e-4)


def test_currency_put_approximate_when_foreign_rate_negative():
    # deep in the money with r = 0 and q < 0, immediate exercise beats holding
    spec = spec_of(OptionRight.PUT, ExerciseStyle.AMERICAN)
    mkt = MarketState(10.0, 0.0, -0.05, 0.20)
    price, tag = price_currency_put_approx(spec, mkt)
    assert tag is Exactness.APPROXIMATION
    assert lattice_price(spec, mkt, 2000) == pytest.approx(30.0, abs=1e-9)
    assert price == pytest.approx(29.487, abs=5e-4)


def test_currency_put_approximate_when_rate_positive():
    spec = spec_of(OptionRight.PUT, ExerciseStyle.AMERICAN)
    mkt = MarketState(36.0, 0.05, 0.06, 0.40)
    price, tag = price_currency_put_approx(spec, mkt)
    assert tag is Exactness.APPROXIMATION
    assert price == pytest.approx(8.008, abs=5e-4)
    american = lattice_price(spec, mkt, 365)
    assert abs(price - american) / american < 0.01


def test_currency_put_rejects_other_contracts():
    mkt = MarketState(36.0, 0.0, 0.06, 0.40)
    with pytest.raises(PricingError):
        price_currency_put_approx(
            spec_of(OptionRight.CALL, ExerciseStyle.AMERICAN), mkt
        )
    with pytest.raises(PricingError):
        price_currency_put_approx(
            spec_of(OptionRight.PUT, ExerciseStyle.EUROPEAN), mkt
        )


def test_analytic_engine_rejects_american_via_dual():
    spec = spec_of(OptionRight.PUT, ExerciseStyle.AMERICAN)
    mkt = MarketState(40.0, 0.06, 0.0, 0.40)
    with pytest.raises(UnsupportedStyleError):
        price_via_dual(spec, mkt, AnalyticEngine())
