"""Report builders and their text/CSV renderings."""

import csv
import io
import sys
import tracemalloc

import numpy as np
import pytest

from dualpricer import (
    ExerciseStyle,
    HedgeScheme,
    LatticeEngine,
    MarketState,
    OptionRight,
    OptionSpec,
    analytic,
    delta_via_dual,
    gross_error,
    hedge,
    lattice_delta,
    lattice_price,
    net_cost,
    price_currency_put_approx,
    price_via_dual,
    run_hedge_sim,
    run_hedge_sims,
    solve_weights,
    true_error,
)
from dualpricer.simulate import SimConfig
from dualpricer.tables import (
    DEFAULT_HEDGE,
    TABLE_BUILDERS,
    render_csv,
    render_text,
)

AMERICAN_PUT = OptionSpec(OptionRight.PUT, ExerciseStyle.AMERICAN, 40.0, 1.0)


def test_builder_registry():
    assert sorted(TABLE_BUILDERS) == ["t1", "t2", "t3", "t4", "t5", "t6", "t7"]


def test_table1_matches_engine_calls():
    table = TABLE_BUILDERS["t1"](steps=60)
    assert table.headers[0] == "put_spot"
    assert len(table.rows) == 5
    engine = LatticeEngine(60)
    for row in table.rows:
        spot = row[0]
        mkt = MarketState(spot, 0.06, 0.0, 0.40)
        direct = lattice_price(AMERICAN_PUT, mkt, 60)
        dual = price_via_dual(AMERICAN_PUT, mkt, engine)
        assert row[2] == pytest.approx(direct, rel=1e-12)
        assert row[5] == pytest.approx(dual, rel=1e-12)
        assert row[6] == pytest.approx(100.0 * (dual - direct) / direct, rel=1e-9)
        # the swapped problem quotes the strike as spot and vice versa
        assert (row[3], row[4]) == (40.0, spot)


def test_table2_layout_and_values():
    table = TABLE_BUILDERS["t2"](steps=60)
    assert [r[0] for r in table.rows] == ["delta"] * 5 + ["gamma"] * 5
    row = table.rows[2]
    spot = row[1]
    mkt = MarketState(spot, 0.06, 0.0, 0.40)
    assert row[3] == pytest.approx(lattice_delta(AMERICAN_PUT, mkt, 60), rel=1e-12)
    assert row[5] == pytest.approx(
        delta_via_dual(AMERICAN_PUT, mkt, LatticeEngine(60)), rel=1e-12
    )


def test_table3_exactness_tags():
    table = TABLE_BUILDERS["t3"](steps=60)
    assert len(table.rows) == 15
    for row in table.rows:
        rate, spot = row[0], row[1]
        expected_tag = "exact" if rate == 0.0 else "approximation"
        assert row[4] == expected_tag
        approx, _ = price_currency_put_approx(
            AMERICAN_PUT, MarketState(spot, rate, 0.06, 0.40)
        )
        assert row[3] == pytest.approx(approx, rel=1e-12)


def test_table4_scheme_selection_and_values():
    table = TABLE_BUILDERS["t4"]()
    assert table.headers == (
        "spot_at_horizon", "hedged_call",
        "bsm_dual_gross", "bsm_dual_gross_pct", "wu_zhu_gross", "wu_zhu_gross_pct",
    )
    for scheme, offset in ((HedgeScheme.BSM_DUAL, 2), (HedgeScheme.WU_ZHU, 4)):
        w = solve_weights(DEFAULT_HEDGE, scheme)
        for row in table.rows:
            ((e, pct),), _ = gross_error(DEFAULT_HEDGE, (w,), row[0])
            assert row[offset] == pytest.approx(e, rel=1e-12)
            assert row[offset + 1] == pytest.approx(pct, rel=1e-12)


def test_table5_matches_net_cost():
    table = TABLE_BUILDERS["t5"]()
    spots = [row[0] for row in table.rows]
    assert spots == [float(s) for s in range(35, 90, 5)]
    for scheme, offset in ((HedgeScheme.BSM_DUAL, 2), (HedgeScheme.WU_ZHU, 4)):
        w = solve_weights(DEFAULT_HEDGE, scheme)
        for row in table.rows:
            ((x, pct),), _ = net_cost(DEFAULT_HEDGE, (w,), row[0])
            assert row[offset] == pytest.approx(x, rel=1e-12)
            assert row[offset + 1] == pytest.approx(pct, rel=1e-12)


def test_table6_spot_pairs_and_values():
    table = TABLE_BUILDERS["t6"]()
    pairs = [(row[0], row[1]) for row in table.rows]
    assert pairs == [
        (a, b) for a in (45.0, 50.0, 55.0) for b in (45.0, 50.0, 55.0)
    ]
    w = solve_weights(DEFAULT_HEDGE, HedgeScheme.BSM_DUAL)
    for row in table.rows:
        (report,) = true_error(DEFAULT_HEDGE, (w,), row[0], row[1])
        assert row[2] == pytest.approx(report.true_error, rel=1e-12)
        assert row[3] == pytest.approx(report.true_error_pct, rel=1e-12)


def test_table7_shares_draws_between_schemes():
    table = TABLE_BUILDERS["t7"](seed=7, paths=300)
    assert len(table.rows) == 10
    assert "300 paths, seed 7" in table.title
    row = table.rows[0]
    for scheme, offset in ((HedgeScheme.BSM_DUAL, 2), (HedgeScheme.WU_ZHU, 5)):
        cfg = SimConfig(
            spot=row[1],
            drift=row[0],
            paths=300,
            seed=7,
            hedge=DEFAULT_HEDGE,
            scheme=scheme,
        )
        summary = run_hedge_sim(cfg)
        assert row[offset] == pytest.approx(summary.mhe_pct, rel=1e-12)
        assert row[offset + 1] == pytest.approx(summary.mae_pct, rel=1e-12)
        assert row[offset + 2] == pytest.approx(summary.rmse, rel=1e-12)


def test_table7_values_each_row_horizon_once_for_both_schemes(monkeypatch):
    elements = []
    original_call_price = hedge.call_price

    def sized_call_price(spot, *args, **kwargs):
        elements.append(np.size(spot))
        return original_call_price(spot, *args, **kwargs)

    monkeypatch.setattr(hedge, "call_price", sized_call_price)
    paths = 300
    table = TABLE_BUILDERS["t7"](seed=7, paths=paths)
    horizon = [n for n in elements if n == paths]
    setup = [n for n in elements if n == 1]
    # three hedging calls and the target on every path of each row, and
    # once at setup per spot0, each shared by both schemes; the setup
    # valuation is shared by both drifts too
    assert sum(horizon) == 4 * paths * len(table.rows)
    assert len(setup) == 4 * len({spot0 for _, spot0, *_ in table.rows})
    assert len(horizon) + len(setup) == len(elements)


def counted_call_prices(monkeypatch):
    """Spot sizes of every ``call_price`` valuation, at every binding."""
    sizes = []
    original = analytic.call_price

    def counted(spot, *args, **kwargs):
        sizes.append(np.size(spot))
        return original(spot, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dualpricer" and vars(module).get("call_price") is original:
            monkeypatch.setattr(module, "call_price", counted)
    return sizes


@pytest.mark.parametrize("name, valuations", [("t4", 4), ("t5", 4), ("t6", 8), ("t7", 60)])
def test_hedge_tables_value_each_spot_set_once_for_both_schemes(name, valuations, monkeypatch):
    # four calls per spot set: the three hedging calls and the target;
    # t6 has a setup and a horizon set, t7 a setup set for each of its five
    # spot0s and a horizon set for each of its ten rows
    sizes = counted_call_prices(monkeypatch)
    TABLE_BUILDERS[name]()
    assert len(sizes) == valuations


def test_shared_runs_value_each_setup_spot_once(monkeypatch):
    # one setup valuation per distinct spot0, whatever its drifts and
    # schemes, and one horizon valuation per (spot, drift); spot0 50 is
    # here at two drifts
    sizes = counted_call_prices(monkeypatch)
    paths = 300
    cfgs = [
        SimConfig(spot, drift, paths, 7, DEFAULT_HEDGE, s)
        for spot, drift in ((46.0, 0.04), (50.0, 0.04), (54.0, 0.04), (50.0, 0.08))
        for s in (*HedgeScheme, HedgeScheme.BSM_DUAL)
    ]
    run_hedge_sims(cfgs)
    assert sizes.count(1) == 4 * 3
    assert sizes.count(paths) == 4 * 4
    assert len(sizes) == 4 * 3 + 4 * 4


def table7_peak_bytes(paths):
    tracemalloc.start()
    try:
        TABLE_BUILDERS["t7"](paths=paths)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table7_memory_is_bounded_by_one_leaf():
    # all rows and schemes share one leaf loop: no table-wide draw buffer
    small, large = table7_peak_bytes(100_000), table7_peak_bytes(400_000)
    assert large < 2 * 2**20
    assert large <= 1.1 * small


def test_render_text_layout():
    table = TABLE_BUILDERS["t1"](steps=30)
    text = render_text(table)
    lines = text.splitlines()
    assert lines[0] == table.title
    assert lines[1].split() == list(table.headers)
    assert len(lines) == 2 + len(table.rows)
    # three-decimal price columns
    first = lines[2].split()
    assert first[2].count(".") == 1
    assert len(first[2].split(".")[1]) == 3


def test_render_csv_round_trips_full_precision():
    table = TABLE_BUILDERS["t1"](steps=30)
    text = render_csv(table)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(table.headers)
    for parsed, original in zip(rows[1:], table.rows):
        for cell, value in zip(parsed, original):
            assert float(cell) == value


def test_render_csv_keeps_string_columns():
    table = TABLE_BUILDERS["t3"](steps=30)
    rows = list(csv.reader(io.StringIO(render_csv(table))))
    tags = {row[4] for row in rows[1:]}
    assert tags == {"exact", "approximation"}
