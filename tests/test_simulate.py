"""Monte-Carlo hedge-error runs: draws, terminal prices, summaries."""

import dataclasses
import gc
import itertools
import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualpricer import (
    HedgeScheme,
    PricingError,
    SimConfig,
    SimSummary,
    call_price,
    gbm_terminal,
    hedge,
    net_cost,
    normal_draws,
    run_hedge_sim,
    run_hedge_sims,
    simulate,
    solve_weights,
    true_error,
)
from dualpricer.simulate import _BLOCK, MAX_PATHS, _tree_sums
from dualpricer.tables import DEFAULT_HEDGE

HORIZON = DEFAULT_HEDGE.horizon


def sim(spot=50.0, drift=0.04, paths=2000, seed=42, scheme=HedgeScheme.BSM_DUAL):
    return SimConfig(
        spot=spot,
        drift=drift,
        paths=paths,
        seed=seed,
        hedge=DEFAULT_HEDGE,
        scheme=scheme,
    )


def test_gbm_frozen_values():
    assert gbm_terminal(50.0, 0.04, 0.20, HORIZON, 0.0) == pytest.approx(
        50.06968321563362, rel=1e-12
    )
    assert gbm_terminal(50.0, 0.04, 0.20, HORIZON, 1.0) == pytest.approx(
        52.78317453923997, rel=1e-12
    )


def test_gbm_limits():
    # zero vol removes the draw; zero horizon removes everything
    assert gbm_terminal(100.0, 0.05, 0.0, 1.0, 3.0) == pytest.approx(
        100.0 * np.exp(0.05), rel=1e-12
    )
    assert gbm_terminal(100.0, 0.05, 0.3, 0.0, 3.0) == pytest.approx(100.0)


def test_gbm_vectorizes_over_draws():
    z = np.array([-1.0, 0.0, 2.5])
    out = gbm_terminal(50.0, 0.04, 0.2, HORIZON, z)
    assert out.shape == z.shape
    for zi, oi in zip(z, out):
        assert oi == pytest.approx(gbm_terminal(50.0, 0.04, 0.2, HORIZON, zi))
    assert np.all(np.diff(out) > 0)


def test_normal_draws_seeded_and_plausible():
    a = normal_draws(777, 50_000)
    b = normal_draws(777, 50_000)
    c = normal_draws(778, 50_000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(a.mean()) < 0.02
    assert abs(a.std() - 1.0) < 0.02
    assert np.isfinite(a).all()


def test_run_is_deterministic():
    first = run_hedge_sim(sim())
    second = run_hedge_sim(sim())
    assert first == second
    assert first.paths == 2000
    assert {type(v) for v in (first.mhe_pct, first.mae_pct, first.rmse)} == {float}


def test_single_zero_draw_reduces_to_known_spot_report(monkeypatch):
    def zero_draws(source, count, *, out):
        out.fill(0.0)
        return out

    monkeypatch.setattr(simulate, "normal_draws", zero_draws)
    cfg = sim(paths=1)
    summary = run_hedge_sim(cfg)
    terminal = float(gbm_terminal(cfg.spot, cfg.drift, DEFAULT_HEDGE.vol, HORIZON, 0.0))
    weights = solve_weights(DEFAULT_HEDGE, cfg.scheme)
    (report,) = true_error(DEFAULT_HEDGE, (weights,), cfg.spot, terminal)
    assert summary.mhe_pct == pytest.approx(report.true_error_pct, abs=1e-10)
    assert summary.mae_pct == pytest.approx(abs(report.true_error_pct), abs=1e-10)
    assert summary.rmse == pytest.approx(abs(report.true_error), abs=1e-12)


def test_mean_absolute_bounds_mean():
    summary = run_hedge_sim(sim(spot=48.0, paths=5000))
    assert summary.mae_pct >= abs(summary.mhe_pct)
    assert summary.rmse > 0


def test_full_scheme_beats_zero_rate_scheme_on_rmse():
    kw = dict(spot=50.0, drift=0.04, paths=4000, seed=42)
    full = run_hedge_sim(sim(scheme=HedgeScheme.BSM_DUAL, **kw))
    special = run_hedge_sim(sim(scheme=HedgeScheme.WU_ZHU, **kw))
    assert full.rmse < special.rmse


def test_mhe_dispersion_shrinks_with_more_paths():
    seeds = range(10)
    few = np.array([run_hedge_sim(sim(paths=500, seed=s)).mhe_pct for s in seeds])
    many = np.array([run_hedge_sim(sim(paths=20_000, seed=s)).mhe_pct for s in seeds])
    assert many.std() < few.std()


def test_config_validation():
    with pytest.raises(PricingError):
        sim(paths=0)
    # the spot comes from outside the program: it is refused when the run is
    # set up, with its own message, before anything is valued at it
    for spot in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(PricingError, match="spot must be positive and finite"):
            sim(spot=spot)


def test_path_count_is_capped():
    assert sim(paths=MAX_PATHS).paths == MAX_PATHS
    with pytest.raises(PricingError, match="paths"):
        sim(paths=MAX_PATHS + 1)
    for count in (-1, 0, MAX_PATHS + 1):
        with pytest.raises(PricingError, match="paths"):
            normal_draws(1, count)


@pytest.mark.parametrize("drift", [1e300, -1e300])
def test_non_finite_terminal_spot_is_rejected(drift):
    with pytest.raises(PricingError, match="spot at the horizon"):
        run_hedge_sim(sim(drift=drift, paths=10))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_draw_is_rejected(bad, monkeypatch):
    # the bad draw lands in the second leaf, after a leaf of good ones
    index, taken = _BLOCK + 5, []
    original_draws = simulate.normal_draws

    def spoiled_draws(source, count, **kwargs):
        z = original_draws(source, count, **kwargs)
        start = sum(taken)
        if start <= index < start + count:
            z[index - start] = bad
        taken.append(count)
        return z

    monkeypatch.setattr(simulate, "normal_draws", spoiled_draws)
    with pytest.raises(PricingError, match="spot at the horizon"):
        run_hedge_sim(sim(paths=2 * _BLOCK + 7, seed=3))
    assert sum(taken) > index


def reference_true_errors(cfg, w, spot_at_start, spots_at_horizon):
    """Reference: ``hedge.true_errors`` as it stood before it went by blocks."""
    spots = np.asarray(spots_at_horizon, dtype=float)
    args = (cfg.rate, cfg.dividend_yield, cfg.vol)
    wing_tau = cfg.wing_maturity - cfg.horizon
    mid_tau = cfg.mid_maturity - cfg.horizon
    portfolio = (
        w.w_low * call_price(spots, cfg.strike_low, *args, wing_tau)
        + w.w_mid * call_price(spots, cfg.strike_mid, *args, mid_tau)
        + w.w_high * call_price(spots, cfg.strike_high, *args, wing_tau)
    )
    target = call_price(spots, cfg.target_strike, *args, cfg.target_maturity - cfg.horizon)
    eps = portfolio - target
    ((cost, _),), _ = net_cost(cfg, (w,), spot_at_start)
    errors = eps - cost * math.exp(cfg.rate * cfg.horizon)
    return errors, target


def reference_run_hedge_sim(cfg):
    """Reference: ``run_hedge_sim`` as it stood before it went by blocks."""
    z = normal_draws(cfg.seed, cfg.paths)
    weights = solve_weights(cfg.hedge, cfg.scheme)
    terminal = gbm_terminal(cfg.spot, cfg.drift, cfg.hedge.vol, cfg.hedge.horizon, z)
    errors, hedged_price = reference_true_errors(cfg.hedge, weights, cfg.spot, terminal)
    ratios = errors / hedged_price
    return SimSummary(
        mhe_pct=float(100.0 * np.mean(ratios)),
        mae_pct=float(100.0 * np.mean(np.abs(ratios))),
        rmse=float(np.sqrt(np.mean(errors**2))),
        paths=cfg.paths,
    )


def bits(summary):
    """Every field of a summary, floats as bit patterns."""
    return [
        struct.pack("<d", v).hex() if isinstance(v, float) else v
        for v in dataclasses.astuple(summary)
    ]


EDGE_PATHS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7)


@st.composite
def sim_runs(draw):
    return sim(
        spot=draw(st.floats(30.0, 70.0)),
        drift=draw(st.floats(-0.5, 0.5)),
        paths=draw(st.one_of(st.sampled_from(EDGE_PATHS), st.integers(1, 3 * _BLOCK))),
        seed=draw(st.integers(0, 2**32 - 1)),
        scheme=draw(st.sampled_from(HedgeScheme)),
    )


@settings(max_examples=60, deadline=None)
@given(sim_runs())
@example(sim(paths=1))
@example(sim(paths=_BLOCK - 1, seed=43, scheme=HedgeScheme.WU_ZHU))
@example(sim(paths=_BLOCK))
@example(sim(paths=_BLOCK + 1, seed=43, spot=47.0))
@example(sim(paths=2 * _BLOCK + 7, drift=-0.3))
def test_blocked_run_matches_unblocked_reference(cfg):
    assert bits(run_hedge_sim(cfg)) == bits(reference_run_hedge_sim(cfg))


def test_true_errors_matches_reference_for_any_shape():
    w = solve_weights(DEFAULT_HEDGE, HedgeScheme.BSM_DUAL)
    ((cost, _),), _ = net_cost(DEFAULT_HEDGE, (w,), 50.0)
    spots = gbm_terminal(50.0, 0.04, 0.2, HORIZON, normal_draws(9, 3 * _BLOCK))
    for shaped in (spots, spots[1:], spots.reshape(3, _BLOCK), spots[::2]):
        (errors,), target = hedge.true_errors(DEFAULT_HEDGE, [w], [cost], shaped)
        want = reference_true_errors(DEFAULT_HEDGE, w, 50.0, shaped)
        for g, r in zip((errors, target), want):
            assert g.shape == shaped.shape
            assert g.tobytes() == r.tobytes()


def test_true_errors_values_several_weight_sets_as_each_alone():
    spots = gbm_terminal(50.0, 0.04, 0.2, HORIZON, normal_draws(13, 999))
    weight_sets = [solve_weights(DEFAULT_HEDGE, s) for s in HedgeScheme]
    costs = [net_cost(DEFAULT_HEDGE, (w,), 48.0)[0][0][0] for w in weight_sets]
    errors, target = hedge.true_errors(DEFAULT_HEDGE, weight_sets, costs, spots)
    assert len(errors) == len(weight_sets)
    for err, w in zip(errors, weight_sets):
        want = reference_true_errors(DEFAULT_HEDGE, w, 48.0, spots)
        assert err.tobytes() == want[0].tobytes()
        assert target.tobytes() == want[1].tobytes()


EXACT_PATHS = (1, 7, 8, 129, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, 100_003)


# two streams per path count: seeds ``paths`` and ``paths + 1``
@pytest.mark.parametrize("seed_offset", [0, 1], ids=["seeded", "passed"])
@pytest.mark.parametrize("scheme", list(HedgeScheme), ids=lambda s: s.value)
@pytest.mark.parametrize("paths", EXACT_PATHS)
def test_streamed_run_is_bit_identical_to_full_arrays(paths, scheme, seed_offset):
    cfg = sim(spot=49.0, paths=paths, seed=paths + seed_offset, scheme=scheme)
    assert bits(run_hedge_sim(cfg)) == bits(reference_run_hedge_sim(cfg))


def test_million_path_run_is_bit_identical_to_full_arrays():
    cfg = sim(paths=1_000_000, seed=2019)
    assert bits(run_hedge_sim(cfg)) == bits(reference_run_hedge_sim(cfg))


def test_draws_taken_in_pieces_are_one_stream():
    count = 3 * _BLOCK + 7
    rng = np.random.Generator(np.random.Philox(42))
    pieces = [normal_draws(rng, n) for n in (_BLOCK, 5, _BLOCK + 2, _BLOCK)]
    assert np.concatenate(pieces).tobytes() == normal_draws(42, count).tobytes()


def mixed_values(count, seed):
    """Magnitudes from 1e-3 to 1e3 with mixed signs, so the order of the adds shows."""
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(-3.0, 3.0, count)
    return np.where(rng.random(count) < 0.5, -magnitudes, magnitudes)


def tree_sum(values):
    def leaf_sums(start, count):
        assert count <= _BLOCK
        return [float(np.add.reduce(values[start : start + count]))]

    (total,) = _tree_sums(leaf_sums, values.size)
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5 * _BLOCK + 7), st.integers(0, 2**32 - 1))
@example(1_000_000, 2019)
def test_leaf_tree_sum_is_numpys_sum(count, seed):
    # the summaries' bits rest on this: if numpy changes its reduction
    # order, this fails by name instead of the summaries drifting
    values = mixed_values(count, seed)
    assert struct.pack("<d", tree_sum(values)) == struct.pack(
        "<d", float(np.add.reduce(values))
    )


def test_tree_sum_leaves_no_reference_cycle():
    # a cycle through leaf_sums would keep a run's leaf buffers alive
    # until the cyclic garbage collector runs
    class Leaves:
        def __call__(self, start, count):
            return [float(count)]

    leaves = Leaves()
    alive = weakref.ref(leaves)
    gc.disable()
    try:
        assert _tree_sums(leaves, 3 * _BLOCK + 5) == [3.0 * _BLOCK + 5]
        del leaves
        assert alive() is None
    finally:
        gc.enable()


def run_peak_bytes(paths):
    tracemalloc.start()
    try:
        run_hedge_sim(sim(paths=paths))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_is_bounded_by_one_leaf():
    small, large = run_peak_bytes(200_000), run_peak_bytes(800_000)
    assert large < 2 * 2**20
    assert large <= 1.1 * small


def test_runs_sharing_paths_match_their_single_runs():
    paths = 2 * _BLOCK + 3
    # spots, drifts and schemes mixed, groups interleaved, one run twice
    cfgs = [
        sim(paths=paths, scheme=s, spot=spot, drift=drift)
        for spot, drift in ((50.0, 0.04), (46.0, 0.04), (50.0, 0.08), (54.0, -0.2))
        for s in HedgeScheme
    ]
    cfgs = cfgs[::2] + cfgs[1::2] + cfgs[:1]
    # one run twice, one spot0 at two drifts, and (spot, drift) pairs that
    # ask one scheme each; the run's first scheme is wu-zhu
    wu, full = HedgeScheme.WU_ZHU, HedgeScheme.BSM_DUAL
    mixed = [
        sim(paths=paths, scheme=s, spot=spot, drift=drift)
        for spot, drift, s in (
            (48.0, 0.0, wu),
            (52.0, 0.08, full),
            (52.0, 0.08, wu),
            (48.0, 0.0, wu),
            (48.0, 0.08, full),
        )
    ]
    for case, seed in itertools.product((cfgs, mixed), (42, 21)):
        case = [dataclasses.replace(c, seed=seed) for c in case]
        shared = run_hedge_sims(case)
        assert [bits(s) for s in shared] == [bits(run_hedge_sim(c)) for c in case]
    other_hedge = dataclasses.replace(DEFAULT_HEDGE, vol=0.25)
    for field, value in (("seed", 43), ("paths", 2001), ("hedge", other_hedge)):
        with pytest.raises(ValueError, match="seed, paths and hedge"):
            run_hedge_sims([cfgs[0], dataclasses.replace(cfgs[1], **{field: value})])


def test_no_runs_give_no_summaries():
    assert run_hedge_sims(()) == ()
    assert run_hedge_sims(iter([])) == ()


def counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_one_draw_one_solve_one_setup_cost_per_run(monkeypatch):
    paths = 2 * _BLOCK + 7
    calls = dict.fromkeys(("solve_weights", "net_cost", "call_price"), 0)
    drawn, elements = [], []
    counting(monkeypatch, simulate, "solve_weights", calls)
    # the setup cost is valued in simulate; count a call from hedge as well
    counting(monkeypatch, simulate, "net_cost", calls)
    counting(monkeypatch, hedge, "net_cost", calls)
    original_draws = simulate.normal_draws
    original_call_price = hedge.call_price

    def sized_draws(source, count, **kwargs):
        drawn.append(count)
        return original_draws(source, count, **kwargs)

    def sized_call_price(spot, *args, **kwargs):
        elements.append(np.size(spot))
        return original_call_price(spot, *args, **kwargs)

    monkeypatch.setattr(simulate, "normal_draws", sized_draws)
    monkeypatch.setattr(hedge, "call_price", sized_call_price)
    run_hedge_sim(sim(paths=paths))
    # one stream drawn leaf by leaf: every path once, no leaf over _BLOCK
    assert sum(drawn) == paths
    assert all(count <= _BLOCK for count in drawn)
    assert calls["solve_weights"] == 1
    assert calls["net_cost"] == 1
    # three hedging calls and the target, per path and once at setup
    assert sum(elements) == 4 * paths + 4
