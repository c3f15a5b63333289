"""Tree pricing: parameterization, golden prices, Greeks, the kernel."""

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualpricer import (
    ExerciseStyle,
    MarketState,
    NoArbitrageError,
    OptionRight,
    OptionSpec,
    PricingError,
    bsm_delta,
    bsm_price,
    build_lattice,
    lattice_delta,
    lattice_gamma,
    lattice_price,
)
from dualpricer import _crr_numpy
from dualpricer.lattice import MAX_STEPS

PUT_GRID = (
    # spot, 365-step American put price printed to 3 decimals
    (36.0, 7.108),
    (38.0, 6.157),
    (40.0, 5.322),
    (42.0, 4.592),
    (44.0, 3.955),
)


def american(right, strike=40.0, maturity=1.0):
    return OptionSpec(right, ExerciseStyle.AMERICAN, strike, maturity)


def european(right, strike=40.0, maturity=1.0):
    return OptionSpec(right, ExerciseStyle.EUROPEAN, strike, maturity)


def test_build_lattice_frozen_params():
    mkt = MarketState(40.0, 0.06, 0.0, 0.40)
    params = build_lattice(mkt, 1.0, 365)
    assert params.dt == pytest.approx(1.0 / 365.0, rel=1e-15)
    assert params.up == pytest.approx(1.0211576726666363, rel=1e-14)
    assert params.up * params.down == pytest.approx(1.0, rel=1e-14)
    assert params.prob_up == pytest.approx(0.4986916672499558, abs=1e-14)


def test_build_lattice_equal_rates_probability():
    mkt = MarketState(40.0, 0.03, 0.03, 0.40)
    params = build_lattice(mkt, 1.0, 365)
    expected = (1.0 - params.down) / (params.up - params.down)
    assert params.prob_up == pytest.approx(expected, rel=1e-14)


def test_build_lattice_rejects_arbitrage_step():
    mkt = MarketState(40.0, 0.60, 0.0, 0.01)
    with pytest.raises(NoArbitrageError):
        build_lattice(mkt, 1.0, 10)


def test_build_lattice_rejects_bad_steps():
    mkt = MarketState(40.0, 0.06, 0.0, 0.40)
    with pytest.raises(PricingError):
        build_lattice(mkt, 1.0, 0)
    assert build_lattice(mkt, 1.0, MAX_STEPS).steps == MAX_STEPS
    with pytest.raises(PricingError):
        build_lattice(mkt, 1.0, MAX_STEPS + 1)


@pytest.mark.parametrize("spot", [1e-10, 1.0, 1e4])
@pytest.mark.parametrize("right", [OptionRight.CALL, OptionRight.PUT])
def test_build_lattice_top_node_limit(spot, right):
    # the top node spot e^{vol sqrt(T N)} must stay below the largest float
    steps, room = 100, math.log(sys.float_info.max) - max(math.log(spot), 0.0)
    limit = room / math.sqrt(steps)
    below = MarketState(spot, 0.05, 0.0, limit * (1 - 1e-9))
    assert math.isfinite(lattice_price(american(right, strike=spot), below, steps))
    with pytest.raises(PricingError, match="overflows"):
        build_lattice(MarketState(spot, 0.05, 0.0, limit * (1 + 1e-9)), 1.0, steps)


@pytest.mark.parametrize("spot,expected", PUT_GRID)
def test_american_put_prices(spot, expected):
    mkt = MarketState(spot, 0.06, 0.0, 0.40)
    price = lattice_price(american(OptionRight.PUT), mkt, 365)
    assert price == pytest.approx(expected, abs=2e-3)


def test_american_call_priced_on_swapped_inputs():
    spec = OptionSpec(OptionRight.CALL, ExerciseStyle.AMERICAN, 36.0, 1.0)
    mkt = MarketState(40.0, 0.0, 0.06, 0.40)
    assert lattice_price(spec, mkt, 365) == pytest.approx(7.109, abs=2e-3)


def test_american_currency_put():
    mkt = MarketState(36.0, 0.0, 0.06, 0.40)
    price = lattice_price(american(OptionRight.PUT), mkt, 365)
    assert price == pytest.approx(9.389, abs=2e-3)


@pytest.mark.parametrize("spot", [s for s, _ in PUT_GRID])
def test_european_price_converges_to_closed_form(spot):
    mkt = MarketState(spot, 0.06, 0.0, 0.40)
    spec = european(OptionRight.PUT)
    assert lattice_price(spec, mkt, 365) == pytest.approx(
        bsm_price(spec, mkt), abs=5e-3
    )


def test_american_dominates_european_and_bound():
    mkt = MarketState(38.0, 0.06, 0.0, 0.40)
    amer = lattice_price(american(OptionRight.PUT), mkt, 365)
    eur = lattice_price(european(OptionRight.PUT), mkt, 365)
    bound = 40.0 * math.exp(-0.06) - 38.0
    assert amer >= eur >= bound


def test_put_price_decreasing_in_spot():
    prices = [
        lattice_price(
            american(OptionRight.PUT), MarketState(s, 0.06, 0.0, 0.40), 365
        )
        for s, _ in PUT_GRID
    ]
    assert all(a > b for a, b in zip(prices, prices[1:]))


def test_european_tree_delta_converges():
    spec = european(OptionRight.PUT)
    for spot in (36.0, 40.0, 44.0):
        mkt = MarketState(spot, 0.06, 0.0, 0.40)
        assert lattice_delta(spec, mkt, 365) == pytest.approx(
            bsm_delta(spec, mkt), abs=1e-3
        )


def test_greeks_need_two_steps():
    mkt = MarketState(40.0, 0.06, 0.0, 0.40)
    spec = american(OptionRight.PUT)
    assert lattice_price(spec, mkt, 1) > 0
    with pytest.raises(PricingError):
        lattice_delta(spec, mkt, 1)
    with pytest.raises(PricingError):
        lattice_gamma(spec, mkt, 1)


@pytest.mark.parametrize("right", [OptionRight.CALL, OptionRight.PUT])
def test_live_overflow_raises(right):
    # every rate and price is finite, but S e^{-qT} and K e^{-rT} are not
    mkt = MarketState(1e305, -15.0, -15.0, 0.40)
    spec = american(right, strike=1e305)
    with pytest.raises(PricingError, match="float range"):
        lattice_price(spec, mkt, 100)


def test_discount_compounding_near_float_max_prices():
    # -r T = 710 is past ln(max float), but the put is worth at most
    # K e^{710} ~ 2e298; its gamma divides by S (u^2 - d^2) ~ 1.6e-11
    mkt = MarketState(1e-10, -710.0, -710.0, 0.40)
    spec = american(OptionRight.PUT, strike=1e-10)
    price = lattice_price(spec, mkt, 100)
    assert math.isfinite(price) and price > 0
    with pytest.raises(PricingError, match="Greeks leave the float range"):
        lattice_gamma(spec, mkt, 100)


def test_numpy_kernel_single_step():
    out = _crr_numpy.induct(40.0, 40.0, 1.1, 0.5, 1.0, 1, True, False)
    assert out[0] == pytest.approx(0.5 * (40.0 * 1.1 - 40.0))
    assert np.isnan(out[3])


def allocating_induct(spot, strike, up, prob_up, discount, steps, is_call, american):
    """Reference: the kernel as it stood before its step became in place."""
    sign = 1.0 if is_call else -1.0
    j = np.arange(steps + 1)
    prices = spot * up ** (2.0 * j - steps)
    values = np.maximum(sign * (prices - strike), 0.0)
    low = {}
    if steps <= 2:
        low[steps] = values.copy()
    p = prob_up
    q = 1.0 - prob_up
    for i in range(steps - 1, -1, -1):
        values = discount * (p * values[1 : i + 2] + q * values[: i + 1])
        prices = prices[: i + 1] * up
        if american:
            values = np.maximum(values, sign * (prices - strike))
        if i <= 2:
            low[i] = values
    v2 = low.get(2, np.full(3, np.nan))
    v1 = low[1] if steps >= 1 else np.full(2, np.nan)
    return (
        float(low[0][0]),
        float(v1[0]),
        float(v1[1]),
        float(v2[0]),
        float(v2[1]),
        float(v2[2]),
    )


def bits(values):
    """Bit patterns of floats, with every NaN as one pattern."""
    return [
        "nan" if math.isnan(v) else struct.pack("<d", v).hex() for v in values
    ]


@st.composite
def trees(draw):
    spot = draw(st.floats(1.0, 1000.0))
    at_the_money = draw(st.booleans())
    strike = spot if at_the_money else draw(st.floats(1.0, 1000.0))
    up = math.exp(draw(st.floats(1e-4, 0.5)))
    prob_up = draw(st.floats(0.01, 0.99))
    discount = draw(st.floats(0.9, 1.0))
    steps = draw(st.integers(1, 400))
    return (spot, strike, up, prob_up, discount, steps, draw(st.booleans()), draw(st.booleans()))


def chunk_edges(test):
    """At K = S, both rights and styles, at steps around the kernel's chunk
    edges, plus a 1000-step tree whose top live price is e^709, so dead
    prices above it overflow."""
    chunk = _crr_numpy._CHUNK
    for steps in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 1000):
        for is_call in (False, True):
            for is_american in (False, True):
                tree = (40.0, 40.0, 1.01, 0.5, 0.999, steps, is_call, is_american)
                test = example(tree)(test)
    return example((1.0, 1.0, math.exp(0.709), 0.5, 0.999, 1000, True, True))(test)


@settings(max_examples=300, deadline=None)
@given(trees())
@example((40.0, 40.0, 1.1, 0.5, 0.99, 1, False, True))
@example((40.0, 40.0, 1.1, 0.5, 0.99, 2, False, True))
@example((40.0, 40.0, 1.1, 0.5, 0.99, 3, False, True))
@example((40.0, 40.0, 1.1, 0.5, 0.99, 2, True, False))
@chunk_edges
def test_in_place_kernel_matches_allocating_reference(tree):
    assert bits(_crr_numpy.induct(*tree)) == bits(allocating_induct(*tree))
