"""Canned report tables.

Seven studies wired to a fixed parameter set: t1-t3 cross-check direct and
swapped-problem tree pricing (prices, Greeks, and the currency-put
approximation), t4-t6 tabulate static-hedge errors for both weighting
schemes from one valuation of each spot set, and t7 summarizes the
Monte-Carlo hedge-error run.  The builders return plain data; rendering
to aligned text or CSV lives here too so the CLI stays thin.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .analytic import (
    ExerciseStyle,
    MarketState,
    OptionRight,
    OptionSpec,
)
from .duality import from_dual_valuation, price_currency_put_approx, to_dual
from .hedge import (
    HedgeConfig,
    HedgeScheme,
    gross_error,
    net_cost,
    solve_weights,
    true_error,
)
from .lattice import lattice_prices, lattice_valuations
from .simulate import SimConfig, run_hedge_sims

__all__ = [
    "TableData",
    "DEFAULT_HEDGE",
    "TABLE_BUILDERS",
    "render_text",
    "render_csv",
]

DEFAULT_HEDGE = HedgeConfig(
    target_strike=50.0,
    target_maturity=0.5,
    strike_low=40.0,
    strike_mid=50.0,
    strike_high=60.0,
    wing_maturity=1.0 / 12.0,
    mid_maturity=2.0 / 12.0,
    horizon=1.0 / 12.0 - 5.0 / 365.0,
    vol=0.20,
    rate=0.05,
    dividend_yield=0.01,
)

_PRICING_SPOTS = (36.0, 38.0, 40.0, 42.0, 44.0)
_PRICING_STRIKE = 40.0
_PRICING_VOL = 0.40
_PRICING_MATURITY = 1.0


@dataclass(frozen=True)
class TableData:
    name: str
    title: str
    headers: tuple[str, ...]
    formats: tuple[str, ...]
    rows: tuple[tuple, ...]


def _put_grid(rate: float, dividend_yield: float):
    """(spec, market) pairs of the American put at each pricing spot."""
    spec = OptionSpec(
        right=OptionRight.PUT,
        style=ExerciseStyle.AMERICAN,
        strike=_PRICING_STRIKE,
        maturity=_PRICING_MATURITY,
    )
    return [
        (spec, MarketState(spot, rate, dividend_yield, _PRICING_VOL))
        for spot in _PRICING_SPOTS
    ]


def _with_duals(pairs):
    """The pairs followed by their swapped twins, to value in one batch."""
    return pairs + [to_dual(*pair) for pair in pairs]


def table1(steps: int = 365) -> TableData:
    """American put prices next to their swapped-problem call prices.

    The puts and their dual calls share vol, maturity and so the tree's up
    factor, so the ten trees take one kernel call.
    """
    pairs = _put_grid(0.06, 0.0)
    prices = lattice_prices(_with_duals(pairs), steps)
    rows = []
    for (spec, mkt), direct, dual in zip(pairs, prices, prices[len(pairs) :]):
        rows.append(
            (
                mkt.spot,
                spec.strike,
                direct,
                spec.strike,
                mkt.spot,
                dual,
                100.0 * (dual - direct) / direct,
            )
        )
    return TableData(
        name="t1",
        title="American put vs dual call, tree with daily steps",
        headers=(
            "put_spot",
            "put_strike",
            "put_price",
            "call_spot",
            "call_strike",
            "call_price",
            "error_pct",
        ),
        formats=("g", "g", ".3f", "g", "g", ".3f", ".3f"),
        rows=tuple(rows),
    )


def table2(steps: int = 365) -> TableData:
    """Tree delta and gamma of American puts, direct and via the dual call.

    One kernel call over the trees of ``table1``, so right after it the
    memo serves this table.
    """
    pairs = _put_grid(0.06, 0.0)
    trees = lattice_valuations(_with_duals(pairs), steps)
    valuations = [
        (spec, mkt, direct, dual_tree, from_dual_valuation(spec, mkt, dual_tree))
        for (spec, mkt), direct, dual_tree in zip(pairs, trees, trees[len(pairs) :])
    ]
    rows = []
    for index, label in ((1, "delta"), (2, "gamma")):
        for spec, mkt, direct, dual_tree, via in valuations:
            rows.append(
                (
                    label,
                    mkt.spot,
                    spec.strike,
                    direct[index],
                    dual_tree[index],
                    via[index],
                    100.0 * (via[index] - direct[index]) / direct[index],
                )
            )
    return TableData(
        name="t2",
        title="American put Greeks, direct tree vs dual-call recovery",
        headers=(
            "greek",
            "spot",
            "strike",
            "direct",
            "dual_tree",
            "via_dual",
            "error_pct",
        ),
        formats=("s", "g", "g", ".4f", ".4f", ".4f", ".3f"),
        rows=tuple(rows),
    )


def table3(steps: int = 365) -> TableData:
    """American currency puts against the closed-form approximation.

    The fifteen trees differ only in spot and domestic rate, so they share
    their up factor and take one kernel call.
    """
    pairs = [pair for rate in (0.0, 0.03, 0.05) for pair in _put_grid(rate, 0.06)]
    rows = []
    for (spec, mkt), american in zip(pairs, lattice_prices(pairs, steps)):
        approx, tag = price_currency_put_approx(spec, mkt)
        rows.append(
            (
                mkt.rate,
                mkt.spot,
                american,
                float(approx),
                tag.value,
                100.0 * (approx - american) / american,
            )
        )
    return TableData(
        name="t3",
        title="American currency put vs closed-form approximation, foreign rate 6%",
        headers=(
            "rate",
            "spot",
            "american_put",
            "approx_price",
            "exactness",
            "error_pct",
        ),
        formats=("g", "g", ".3f", ".3f", "s", ".3f"),
        rows=tuple(rows),
    )


_HEDGE_SPOTS = np.arange(35.0, 90.0, 5.0)
_TRUE_ERROR_SPOTS = (45.0, 50.0, 55.0)


def _scheme_key(scheme: HedgeScheme) -> str:
    return scheme.value.replace("-", "_")


def _weight_sets():
    return tuple(solve_weights(DEFAULT_HEDGE, s) for s in HedgeScheme)


def _hedge_table(name, title, lead, columns, suffix, pairs) -> TableData:
    """A t4-t6 table: lead columns, then a value and a percent per scheme.

    ``lead`` holds the (header, format) of each lead column and ``columns``
    lists its cells; ``pairs`` holds each scheme's (values, percents) for
    every row, in ``HedgeScheme`` order.
    """
    headers = [header for header, _ in lead]
    formats = [fmt for _, fmt in lead]
    for s, pair in zip(HedgeScheme, pairs, strict=True):
        headers += [f"{_scheme_key(s)}_{suffix}", f"{_scheme_key(s)}_{suffix}_pct"]
        formats += [".3f", ".2f"]
        columns += pair
    body = zip(*(column.tolist() for column in columns))
    return TableData(name, title, tuple(headers), tuple(formats), tuple(body))


def table4() -> TableData:
    """Gross hedge error and the hedged call across horizon spots."""
    pairs, hedged = gross_error(DEFAULT_HEDGE, _weight_sets(), _HEDGE_SPOTS)
    return _hedge_table(
        "t4",
        "Gross hedge errors at the end of the hedge period",
        (("spot_at_horizon", "g"), ("hedged_call", ".3f")),
        [_HEDGE_SPOTS, hedged],
        "gross",
        pairs,
    )


def table5() -> TableData:
    """Net cost of the hedge and the hedged call at setup across starting spots."""
    pairs, hedged = net_cost(DEFAULT_HEDGE, _weight_sets(), _HEDGE_SPOTS)
    return _hedge_table(
        "t5",
        "Net costs of the hedge at setup",
        (("spot_at_0", "g"), ("hedged_call", ".3f")),
        [_HEDGE_SPOTS, hedged],
        "cost",
        pairs,
    )


def table6() -> TableData:
    """True hedge errors for known start and horizon spots."""
    starts, horizons = np.repeat(_TRUE_ERROR_SPOTS, 3), np.tile(_TRUE_ERROR_SPOTS, 3)
    reports = true_error(DEFAULT_HEDGE, _weight_sets(), starts, horizons)
    return _hedge_table(
        "t6",
        "True hedge errors with known start and horizon spots",
        (("spot_at_0", "g"), ("spot_at_horizon", "g")),
        [starts, horizons],
        "true",
        [(r.true_error, r.true_error_pct) for r in reports],
    )


def table7(seed: int = 42, paths: int = 10_000) -> TableData:
    """Simulated true hedge errors for ten (drift, spot) rows and both schemes.

    One ``run_hedge_sims`` run gives every row and scheme the same shocks
    and values each row's horizon spots once for both schemes; its peak
    memory is one leaf whatever ``paths`` is.
    """
    schemes = (HedgeScheme.BSM_DUAL, HedgeScheme.WU_ZHU)
    headers = ["drift", "spot_0"]
    formats = ["g", "g"]
    for s in schemes:
        key = _scheme_key(s)
        headers += [f"{key}_mhe_pct", f"{key}_mae_pct", f"{key}_rmse"]
        formats += [".2f", ".2f", ".3f"]
    cfgs = [
        SimConfig(spot, drift, paths, seed, DEFAULT_HEDGE, s)
        for drift in (0.04, 0.08)
        for spot in (46.0, 48.0, 50.0, 52.0, 54.0)
        for s in schemes
    ]
    rows = []
    for cfg, summary in zip(cfgs, run_hedge_sims(cfgs)):
        if cfg.scheme is schemes[0]:
            rows.append((cfg.drift, cfg.spot))
        rows[-1] += (summary.mhe_pct, summary.mae_pct, summary.rmse)
    return TableData(
        name="t7",
        title=f"Simulated true hedge errors ({paths} paths, seed {seed})",
        headers=tuple(headers),
        formats=tuple(formats),
        rows=tuple(rows),
    )


TABLE_BUILDERS = {
    "t1": table1,
    "t2": table2,
    "t3": table3,
    "t4": table4,
    "t5": table5,
    "t6": table6,
    "t7": table7,
}


def _cells(table: TableData):
    for row in table.rows:
        yield [
            value if fmt == "s" else format(value, fmt)
            for value, fmt in zip(row, table.formats)
        ]


def render_text(table: TableData) -> str:
    """Aligned fixed-precision view for eyeballing."""
    body = list(_cells(table))
    widths = [
        max(len(h), *(len(r[i]) for r in body)) if body else len(h)
        for i, h in enumerate(table.headers)
    ]
    lines = [table.title]
    lines.append("  ".join(h.rjust(w) for h, w in zip(table.headers, widths)))
    for row in body:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def render_csv(table: TableData) -> str:
    """Full-precision comma-separated view."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.headers)
    for row in table.rows:
        writer.writerow(row)
    return buf.getvalue()
