"""Swapped-problem pricing: transform algebra, engine equality, Greeks."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualpricer import (
    AnalyticEngine,
    Exactness,
    ExerciseStyle,
    LatticeEngine,
    MarketState,
    OptionRight,
    OptionSpec,
    PricingError,
    bsm_valuation,
    call_price,
    delta_via_dual,
    gamma_via_dual,
    lattice_delta,
    lattice_gamma,
    lattice_price,
    price_currency_put_approx,
    price_via_dual,
    to_dual,
    lattice,
    valuation_via_dual,
)

SPOTS = (36.0, 38.0, 40.0, 42.0, 44.0)


def spec_of(right, style, strike=40.0, maturity=1.0):
    return OptionSpec(right, style, strike, maturity)


def test_to_dual_swaps_roles():
    spec = spec_of(OptionRight.PUT, ExerciseStyle.AMERICAN, strike=50.0)
    mkt = MarketState(40.0, 0.06, 0.0, 0.40)
    dual_spec, dual_mkt = to_dual(spec, mkt)
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
    once = to_dual(spec, mkt)
    twice = to_dual(*once)
    assert twice == (spec, mkt)


def test_to_dual_fixed_point_up_to_right():
    spec = spec_of(OptionRight.CALL, ExerciseStyle.EUROPEAN, strike=50.0)
    mkt = MarketState(50.0, 0.03, 0.03, 0.25)
    dual_spec, dual_mkt = to_dual(spec, mkt)
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
        direct = bsm_valuation(spec, mkt)[0]
        assert price_via_dual(spec, mkt, engine) == pytest.approx(direct, abs=1e-12)


def test_analytic_dual_greeks_match_closed_form():
    engine = AnalyticEngine()
    spec = spec_of(OptionRight.PUT, ExerciseStyle.EUROPEAN, strike=45.0, maturity=0.8)
    mkt = MarketState(52.0, 0.04, 0.015, 0.3)
    assert delta_via_dual(spec, mkt, engine) == pytest.approx(
        bsm_valuation(spec, mkt)[1], abs=1e-10
    )
    assert gamma_via_dual(spec, mkt, engine) == pytest.approx(
        bsm_valuation(spec, mkt)[2], abs=1e-8
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


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(math.exp)


@st.composite
def tree_contracts(draw):
    """Contracts of either right and style on trees of 2 to 1000 steps."""
    spot = draw(log_uniform(-3.0, 6.0))
    spec = OptionSpec(
        draw(st.sampled_from(OptionRight)),
        draw(st.sampled_from(ExerciseStyle)),
        spot * draw(log_uniform(-1.0, 1.0)),
        draw(log_uniform(-4.0, 1.5)),
    )
    rate, yield_ = draw(st.floats(-0.05, 0.15)), draw(st.floats(-0.05, 0.15))
    mkt = MarketState(spot, rate, yield_, draw(st.floats(0.05, 1.5)))
    return spec, mkt, draw(st.integers(2, 1000))


@settings(max_examples=200, deadline=None)
@given(tree_contracts())
def test_tree_duality_property(contract):
    # with u d = 1 the dual tree's price equals the direct one in real
    # numbers, so only rounding parts them; the via-dual delta differs by
    # discretisation, O(1/N).  Bounds: 11x, 1.3x and 6x the measured maxima
    # of 8.9e-11, 0.76 and 6.5e-10 over 4,000 random contracts
    spec, mkt, steps = contract
    try:
        price, delta, gamma = LatticeEngine(steps).valuation(spec, mkt)
        via_price, via_delta, via_gamma = valuation_via_dual(spec, mkt, LatticeEngine(steps))
    except PricingError:
        assume(False)
    assert abs(via_price - price) <= 1e-9 * price
    assert abs(via_delta - delta) * steps <= 1.0
    assert abs(via_gamma - gamma) * mkt.spot <= 4e-9


def bits(values):
    return [struct.pack("<d", v).hex() for v in values]


@pytest.mark.parametrize(
    "engine,style",
    [
        (AnalyticEngine(), ExerciseStyle.EUROPEAN),
        (LatticeEngine(101), ExerciseStyle.EUROPEAN),
        (LatticeEngine(101), ExerciseStyle.AMERICAN),
    ],
    ids=["analytic", "lattice-european", "lattice-american"],
)
def test_batch_methods_keep_each_pairs_bits(engine, style):
    # a put and its dual call, a call at other rates, an at-the-money put and
    # a put at another vol: the tree values the first four in one kernel call
    put = spec_of(OptionRight.PUT, style)
    pairs = [
        (put, MarketState(36.0, 0.06, 0.0, 0.40)),
        to_dual(put, MarketState(36.0, 0.06, 0.0, 0.40)),
        (spec_of(OptionRight.CALL, style), MarketState(44.0, 0.03, 0.05, 0.40)),
        (put, MarketState(40.0, 0.0, 0.06, 0.40)),
        (put, MarketState(38.0, 0.06, 0.0, 0.30)),
    ]

    def alone(method, spec, mkt):
        lattice._nodes.cache_clear()
        return method(spec, mkt)

    lattice._nodes.cache_clear()
    assert bits(engine.prices(pairs)) == bits(alone(engine.price, *pair) for pair in pairs)
    lattice._nodes.cache_clear()
    batched = engine.valuations(pairs)
    assert [bits(v) for v in batched] == [
        bits(alone(engine.valuation, *pair)) for pair in pairs
    ]


def test_dual_delta_is_strike_derivative():
    # the swapped problem's delta is the original price's strike sensitivity
    engine = AnalyticEngine()
    spec = spec_of(OptionRight.PUT, ExerciseStyle.EUROPEAN, strike=45.0, maturity=0.8)
    mkt = MarketState(52.0, 0.04, 0.015, 0.3)
    dual_spec, dual_mkt = to_dual(spec, mkt)
    dual_delta = engine.delta(dual_spec, dual_mkt)
    h = 1e-5 * spec.strike
    fd = (
        put_value(mkt, spec.strike + h, spec.maturity)
        - put_value(mkt, spec.strike - h, spec.maturity)
    ) / (2 * h)
    assert dual_delta == pytest.approx(fd, rel=1e-4)
    value = bsm_valuation(spec, mkt)[0]
    euler = mkt.spot * bsm_valuation(spec, mkt)[1] + spec.strike * dual_delta
    assert euler == pytest.approx(value, rel=1e-10)


def put_value(mkt, strike, maturity):
    put = spec_of(OptionRight.PUT, ExerciseStyle.EUROPEAN, strike, maturity)
    return bsm_valuation(put, mkt)[0]


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
    with pytest.raises(PricingError, match="European only"):
        price_via_dual(spec, mkt, AnalyticEngine())
