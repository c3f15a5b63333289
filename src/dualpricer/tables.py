"""Canned report tables.

Seven studies wired to a fixed parameter set: t1-t3 cross-check direct and
swapped-problem tree pricing (prices, Greeks, and the currency-put
approximation), t4-t6 tabulate static-hedge errors for both weighting
schemes, and t7 summarizes the Monte-Carlo hedge-error run.  The builders
return plain data; rendering to aligned text or CSV lives here too so the
CLI stays thin.
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
    call_price,
)
from .duality import (
    LatticeEngine,
    from_dual_valuation,
    price_currency_put_approx,
    price_via_dual,
    to_dual,
)
from .hedge import (
    HedgeConfig,
    HedgeScheme,
    gross_error,
    net_cost,
    solve_weights,
    true_error,
)
from .lattice import lattice_price
from .simulate import SimConfig, normal_draws, run_hedge_sims

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


def _american(right: OptionRight) -> OptionSpec:
    return OptionSpec(
        right=right,
        style=ExerciseStyle.AMERICAN,
        strike=_PRICING_STRIKE,
        maturity=_PRICING_MATURITY,
    )


def table1(steps: int = 365) -> TableData:
    """American put prices next to their swapped-problem call prices."""
    spec = _american(OptionRight.PUT)
    engine = LatticeEngine(steps)
    rows = []
    for spot in _PRICING_SPOTS:
        mkt = MarketState(spot, 0.06, 0.0, _PRICING_VOL)
        direct = lattice_price(spec, mkt, steps)
        dual = price_via_dual(spec, mkt, engine)
        rows.append(
            (
                spot,
                spec.strike,
                float(direct),
                spec.strike,
                spot,
                float(dual),
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
    """Tree delta and gamma of American puts, direct and via the dual call."""
    spec = _american(OptionRight.PUT)
    engine = LatticeEngine(steps)
    valuations = []
    for spot in _PRICING_SPOTS:
        mkt = MarketState(spot, 0.06, 0.0, _PRICING_VOL)
        dual_tree = engine.valuation(*to_dual(spec, mkt))
        via = from_dual_valuation(spec, mkt, dual_tree)
        valuations.append((spot, engine.valuation(spec, mkt), dual_tree, via))
    rows = []
    for index, label in ((1, "delta"), (2, "gamma")):
        for spot, direct, dual_tree, via in valuations:
            rows.append(
                (
                    label,
                    spot,
                    spec.strike,
                    float(direct[index]),
                    float(dual_tree[index]),
                    float(via[index]),
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
    """American currency puts against the closed-form approximation."""
    spec = _american(OptionRight.PUT)
    rows = []
    for rate in (0.0, 0.03, 0.05):
        for spot in _PRICING_SPOTS:
            mkt = MarketState(spot, rate, 0.06, _PRICING_VOL)
            american = lattice_price(spec, mkt, steps)
            approx, tag = price_currency_put_approx(spec, mkt)
            rows.append(
                (
                    rate,
                    spot,
                    float(american),
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


def _hedged_call(tau: float):
    cfg = DEFAULT_HEDGE
    return call_price(
        _HEDGE_SPOTS, cfg.target_strike, cfg.rate, cfg.dividend_yield, cfg.vol, tau
    )


def _hedge_table(name, title, lead, columns, suffix, values, scheme) -> TableData:
    """A t4-t6 table: lead columns, then a value and a percent per scheme.

    ``lead`` holds the (header, format) of each lead column and ``columns``
    lists its cells; ``values(weights)`` gives one scheme's (values,
    percents) for every row in one call.
    """
    wanted = (HedgeScheme.BSM_DUAL, HedgeScheme.WU_ZHU) if scheme is None else (scheme,)
    headers = [header for header, _ in lead]
    formats = [fmt for _, fmt in lead]
    for s in wanted:
        headers += [f"{_scheme_key(s)}_{suffix}", f"{_scheme_key(s)}_{suffix}_pct"]
        formats += [".3f", ".2f"]
        columns += values(solve_weights(DEFAULT_HEDGE, s))
    body = zip(*(column.tolist() for column in columns))
    return TableData(name, title, tuple(headers), tuple(formats), tuple(body))


def table4(scheme: HedgeScheme | None = None) -> TableData:
    """Gross hedge error across horizon spots."""
    cfg = DEFAULT_HEDGE
    return _hedge_table(
        "t4",
        "Gross hedge errors at the end of the hedge period",
        (("spot_at_horizon", "g"), ("hedged_call", ".3f")),
        [_HEDGE_SPOTS, _hedged_call(cfg.target_maturity - cfg.horizon)],
        "gross",
        lambda w: gross_error(cfg, w, _HEDGE_SPOTS),
        scheme,
    )


def table5(scheme: HedgeScheme | None = None) -> TableData:
    """Net cost of the hedge at setup across starting spots."""
    cfg = DEFAULT_HEDGE
    return _hedge_table(
        "t5",
        "Net costs of the hedge at setup",
        (("spot_at_0", "g"), ("hedged_call", ".3f")),
        [_HEDGE_SPOTS, _hedged_call(cfg.target_maturity)],
        "cost",
        lambda w: net_cost(cfg, w, _HEDGE_SPOTS),
        scheme,
    )


def table6(scheme: HedgeScheme | None = None) -> TableData:
    """True hedge errors for known start and horizon spots."""
    starts, horizons = np.repeat(_TRUE_ERROR_SPOTS, 3), np.tile(_TRUE_ERROR_SPOTS, 3)

    def true_pair(w):
        report = true_error(DEFAULT_HEDGE, w, starts, horizons)
        return report.true_error, report.true_error_pct

    return _hedge_table(
        "t6",
        "True hedge errors with known start and horizon spots",
        (("spot_at_0", "g"), ("spot_at_horizon", "g")),
        [starts, horizons],
        "true",
        true_pair,
        scheme,
    )


def table7(seed: int = 42, paths: int = 10_000) -> TableData:
    """Simulated true hedge errors; both schemes see the same valued paths."""
    draws = normal_draws(seed, paths)
    schemes = (HedgeScheme.BSM_DUAL, HedgeScheme.WU_ZHU)
    headers = ["drift", "spot_0"]
    formats = ["g", "g"]
    for s in schemes:
        key = _scheme_key(s)
        headers += [f"{key}_mhe_pct", f"{key}_mae_pct", f"{key}_rmse"]
        formats += [".2f", ".2f", ".3f"]
    rows = []
    for drift in (0.04, 0.08):
        for spot in (46.0, 48.0, 50.0, 52.0, 54.0):
            cfgs = [
                SimConfig(
                    spot=spot,
                    drift=drift,
                    paths=paths,
                    seed=seed,
                    hedge=DEFAULT_HEDGE,
                    scheme=s,
                )
                for s in schemes
            ]
            row = [drift, spot]
            for summary in run_hedge_sims(cfgs, draws=draws):
                row += [summary.mhe_pct, summary.mae_pct, summary.rmse]
            rows.append(tuple(row))
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
