"""Tree pricing: parameterization, golden prices, Greeks, the kernel."""

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualpricer import (
    ExerciseStyle,
    MarketState,
    OptionRight,
    OptionSpec,
    PricingError,
    bsm_valuation,
    build_lattice,
    lattice_delta,
    lattice_gamma,
    lattice_price,
    lattice_prices,
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
    with pytest.raises(PricingError, match="no-arbitrage violation"):
        build_lattice(mkt, 1.0, 10)


def test_build_lattice_rejects_bad_steps():
    mkt = MarketState(40.0, 0.06, 0.0, 0.40)
    with pytest.raises(PricingError):
        build_lattice(mkt, 1.0, 0)
    build_lattice(mkt, 1.0, MAX_STEPS)
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
        bsm_valuation(spec, mkt)[0], abs=5e-3
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
            bsm_valuation(spec, mkt)[1], abs=1e-3
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
    out = _crr_numpy.induct((40.0,), (40.0,), 1.1, (0.5,), (1.0,), 1, (True,), False)[0]
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
    spot, strike, up, prob_up, discount, steps, is_call, american = tree
    out = _crr_numpy.induct(
        (spot,), (strike,), up, (prob_up,), (discount,), steps, (is_call,), american
    )
    assert bits(out[0]) == bits(allocating_induct(*tree))


@st.composite
def batches(draw):
    """1 to 8 trees that share up, steps and style; each has its own spot,
    strike (the spot, half the time), right, up-probability and step
    discount."""
    _, _, up, _, _, steps, _, american = draw(trees())
    size = draw(st.integers(1, 8))
    spots, strikes, _, prob_ups, discounts, _, is_calls, _ = zip(
        *(draw(trees()) for _ in range(size))
    )
    return (spots, strikes, up, prob_ups, discounts, steps, is_calls, american)


def batch_edges(test):
    """Four trees of both rights, two of them at the money, with their own
    up-probabilities and discounts, at steps around the kernel's chunk edges
    and at 1000; and the e^709 tree of ``chunk_edges`` beside an ordinary
    put: its dead prices overflow, and the neighbour's column must not see
    it."""
    chunk = _crr_numpy._CHUNK
    spots, strikes = (40.0, 36.0, 44.0, 40.0), (40.0, 40.0, 38.0, 40.0)
    prob_ups, discounts = (0.5, 0.49, 0.52, 0.5), (0.999, 1.0, 0.998, 0.9995)
    for steps in (chunk - 1, chunk + 1, 2 * chunk + 1, 1000):
        for is_call in (False, True):
            for is_american in (False, True):
                rights = (is_call, is_call, not is_call, not is_call)
                batch = (spots, strikes, 1.01, prob_ups, discounts, steps, rights, is_american)
                test = example(batch)(test)
    overflow = (
        (1.0, 0.5), (1.0, 0.5), math.exp(0.709), (0.5, 0.45), (0.999, 0.99), 1000,
        (True, False), True,
    )
    return example(overflow)(test)


@settings(max_examples=200, deadline=None)
@given(batches())
@batch_edges
def test_batched_kernel_keeps_every_trees_bits(batch):
    spots, strikes, up, prob_ups, discounts, steps, is_calls, american = batch
    out = _crr_numpy.induct(*batch)
    assert len(out) == len(spots)
    for spot, strike, prob_up, discount, is_call, nodes in zip(
        spots, strikes, prob_ups, discounts, is_calls, out
    ):
        alone = allocating_induct(spot, strike, up, prob_up, discount, steps, is_call, american)
        assert bits(nodes) == bits(alone)


def test_overflow_in_a_batch_names_its_tree():
    # both trees share every kernel scalar, so they are one kernel call;
    # only the second one's values leave the float range
    mkt = MarketState(40.0, -15.0, -15.0, 0.40)
    wide = MarketState(1e305, -15.0, -15.0, 0.40)
    pairs = [
        (american(OptionRight.PUT), mkt),
        (american(OptionRight.PUT, strike=1e305), wide),
    ]
    named = r"float range at 100 steps \(spot 1e\+305, strike 1e\+305\)"
    with pytest.raises(PricingError, match=named):
        lattice_prices(pairs, 100)
    assert lattice_prices(pairs[:1], 100) == [lattice_price(*pairs[0], 100)]


def log10_uniform(low, high):
    """10 to a power drawn from [low, high]."""
    return st.floats(low, high).map(lambda power: 10.0**power)


@st.composite
def extreme_trees(draw):
    """Trees at the edges of the float range: spots from 1e-320 to 1e308,
    |r| and |q| up to 3,000, 1 to 50 steps, both rights and styles.  The
    vol is drawn above |r - q| sqrt(dt), so that most trees admit no
    arbitrage."""
    steps = draw(st.integers(1, 50))
    maturity = draw(log10_uniform(-4.0, 1.0))
    rate, dividend_yield = draw(st.floats(-3000.0, 3000.0)), draw(st.floats(-3000.0, 3000.0))
    least = abs(rate - dividend_yield) * math.sqrt(maturity / steps)
    vol = least * draw(log10_uniform(0.0, 2.0)) + draw(log10_uniform(-3.0, 1.0))
    spot = draw(log10_uniform(-320.0, 308.0))
    strike = spot if draw(st.booleans()) else draw(log10_uniform(-320.0, 308.0))
    spec = OptionSpec(
        draw(st.sampled_from(OptionRight)), draw(st.sampled_from(ExerciseStyle)), strike, maturity
    )
    return spec, MarketState(spot, rate, dividend_yield, vol), steps


@settings(max_examples=300, deadline=None)
@given(extreme_trees())
# the discount e^60 a step overflows the nodes well before step 2
@example((american(OptionRight.PUT, 1e300), MarketState(1e300, -3000.0, -3000.0, 1.0), 50))
@example(
    (
        OptionSpec(OptionRight.CALL, ExerciseStyle.EUROPEAN, 1e300, 1.0),
        MarketState(1e300, -3000.0, -3000.0, 1.0),
        50,
    )
)
def test_a_step_node_out_of_range_leaves_the_root_out_of_range(tree):
    # why lattice checks the root alone: a node is discount * (p * up +
    # (1 - p) * down), every factor >= 0, so inf or NaN reaches the root
    spec, mkt, steps = tree
    try:
        params = build_lattice(mkt, spec.maturity, steps)
    except PricingError:
        assume(False)
    nodes = _crr_numpy.induct(
        (mkt.spot,),
        (spec.strike,),
        params.up,
        (params.prob_up,),
        (math.exp(-mkt.rate * params.dt),),
        steps,
        (spec.right is OptionRight.CALL,),
        spec.style is ExerciseStyle.AMERICAN,
    )[0]
    if not all(map(math.isfinite, nodes[: 6 if steps >= 2 else 3])):
        assert not math.isfinite(nodes[0])
