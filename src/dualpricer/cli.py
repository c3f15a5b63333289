"""Command-line front end.

Three subcommands: ``price`` for one option (direct and swapped-problem
pricing side by side), ``table`` for the canned t1-t7 reports, and
``hedge`` for weights, error reports, and simulation.  Exit codes: 0 on
success, 1 on numerical or domain failures, 2 on usage errors.

The ``DUALPRICER_SEED`` environment variable supplies the default seed
wherever one is accepted.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiment, tables
from .analytic import ExerciseStyle, MarketState, OptionRight, OptionSpec
from .duality import (
    AnalyticEngine,
    LatticeEngine,
    price_via_dual,
    valuation_via_dual,
)
from .errors import PricingError
from .hedge import (
    HedgeConfig,
    HedgeScheme,
    gross_error,
    net_cost,
    solve_weights,
    true_error,
)
from .simulate import SimConfig, run_hedge_sim

__all__ = ["build_parser", "main"]


def _default_seed() -> int:
    raw = os.environ.get("DUALPRICER_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        raise PricingError(f"DUALPRICER_SEED must be an integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualpricer",
        description="Option pricing and static hedging through the swapped problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price one option, optionally via its dual")
    p.add_argument("--style", choices=["european", "american"], required=True)
    p.add_argument("--right", choices=["call", "put"], required=True)
    p.add_argument("-S", "--spot", type=float, required=True)
    p.add_argument("-K", "--strike", type=float, required=True)
    p.add_argument("-r", "--rate", type=float, required=True)
    p.add_argument("-q", "--yield", dest="dividend_yield", type=float, default=0.0)
    p.add_argument("--vol", type=float, required=True)
    p.add_argument("-T", "--maturity", type=float, required=True)
    p.add_argument("--steps", type=int, default=365)
    p.add_argument(
        "--engine",
        choices=["auto", "analytic", "lattice"],
        default="auto",
        help="auto picks analytic for European, lattice for American",
    )
    p.add_argument("--dual", action="store_true", help="also price the swapped problem")
    p.add_argument("--greeks", action="store_true", help="also print delta and gamma")
    p.set_defaults(func=cmd_price)

    t = sub.add_parser("table", help="emit one of the canned reports t1..t7")
    t.add_argument("name", choices=sorted(tables.TABLE_BUILDERS))
    t.add_argument("--format", choices=["table", "csv"], default="table")
    t.add_argument("--out", help="write to this path instead of stdout")
    t.add_argument("--steps", type=int, default=365, help="tree steps (t1-t3)")
    t.add_argument(
        "--scheme",
        choices=["bsm-dual", "wu-zhu", "both"],
        default="both",
        help="hedge scheme columns (t4-t6)",
    )
    t.add_argument("--seed", type=int, help="simulation seed (t7)")
    t.add_argument("--paths", type=int, default=10_000, help="simulated paths (t7)")
    t.set_defaults(func=cmd_table)

    h = sub.add_parser("hedge", help="solve hedge weights and report errors")
    h.add_argument("-K", "--target-strike", dest="target_strike", type=float)
    h.add_argument("-T", "--target-maturity", dest="target_maturity", type=float)
    h.add_argument("--Kd", dest="kd", type=float, help="low hedging strike")
    h.add_argument("--Kc", dest="kc", type=float, help="middle hedging strike")
    h.add_argument("--Ku", dest="ku", type=float, help="high hedging strike")
    h.add_argument("--To", dest="to", type=float, help="wing expiry (low/high strikes)")
    h.add_argument("--Tc", dest="tc", type=float, help="middle strike expiry")
    h.add_argument("--Th", dest="th", type=float, help="hedge horizon")
    h.add_argument("--vol", type=float)
    h.add_argument("-r", "--rate", type=float)
    h.add_argument("-q", "--yield", dest="dividend_yield", type=float)
    h.add_argument("--scheme", choices=["bsm-dual", "wu-zhu"])
    h.add_argument("--spot0", type=float, help="spot at setup")
    h.add_argument("--spotTh", dest="spot_th", type=float, help="spot at the horizon")
    h.add_argument("--sim", action="store_true", help="simulate instead of point eval")
    h.add_argument("--paths", type=int)
    h.add_argument("--mu", type=float, help="physical drift for --sim")
    h.add_argument("--seed", type=int)
    h.add_argument("--config", help="experiment file supplying defaults")
    h.set_defaults(func=cmd_hedge)

    return parser


def cmd_price(args) -> int:
    spec = OptionSpec(
        right=OptionRight(args.right),
        style=ExerciseStyle(args.style),
        strike=args.strike,
        maturity=args.maturity,
    )
    mkt = MarketState(args.spot, args.rate, args.dividend_yield, args.vol)
    if args.engine == "analytic":
        engine = AnalyticEngine()
    elif args.engine == "lattice":
        engine = LatticeEngine(args.steps)
    elif spec.style is ExerciseStyle.AMERICAN:
        engine = LatticeEngine(args.steps)
    else:
        engine = AnalyticEngine()

    if args.greeks:
        direct, delta, gamma = engine.valuation(spec, mkt)
    else:
        direct = engine.price(spec, mkt)
    print(f"direct price: {direct:.3f}")
    if args.greeks:
        print(f"direct delta: {delta:.4f}")
        print(f"direct gamma: {gamma:.4f}")
    if args.dual:
        if args.greeks:
            dual, dual_delta, dual_gamma = valuation_via_dual(spec, mkt, engine)
        else:
            dual = price_via_dual(spec, mkt, engine)
        scale = max(abs(direct), 1e-300)
        print(f"dual price:   {dual:.3f}")
        print(f"relative discrepancy: {abs(dual - direct) / scale:.2e}")
        if args.greeks:
            print(f"dual delta:   {dual_delta:.4f}")
            print(f"dual gamma:   {dual_gamma:.4f}")
    return 0


def cmd_table(args) -> int:
    name = args.name
    if name in ("t1", "t2", "t3"):
        table = tables.TABLE_BUILDERS[name](steps=args.steps)
    elif name in ("t4", "t5", "t6"):
        scheme = None if args.scheme == "both" else HedgeScheme(args.scheme)
        table = tables.TABLE_BUILDERS[name](scheme=scheme)
    else:
        seed = args.seed if args.seed is not None else _default_seed()
        table = tables.TABLE_BUILDERS[name](seed=seed, paths=args.paths)
    text = (
        tables.render_csv(table)
        if args.format == "csv"
        else tables.render_text(table)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _pick(values: dict, key: str, flag, default, cast=float):
    """Flag beats config file beats built-in default."""
    if flag is not None:
        return flag
    if key in values:
        raw = values[key]
        try:
            return cast(raw)
        except ValueError:
            raise PricingError(f"bad experiment value for {key!r}: {raw!r}")
    return default


def cmd_hedge(args) -> int:
    values: dict[str, str] = {}
    if args.config:
        exp = experiment.load_file(args.config)
        if exp.command != "hedge":
            raise PricingError(
                f"experiment file drives command {exp.command!r}, not 'hedge'"
            )
        values = exp.values

    d = tables.DEFAULT_HEDGE
    cfg = HedgeConfig(
        target_strike=_pick(values, "K", args.target_strike, d.target_strike),
        target_maturity=_pick(values, "T", args.target_maturity, d.target_maturity),
        strike_low=_pick(values, "Kd", args.kd, d.strike_low),
        strike_mid=_pick(values, "Kc", args.kc, d.strike_mid),
        strike_high=_pick(values, "Ku", args.ku, d.strike_high),
        wing_maturity=_pick(values, "To", args.to, d.wing_maturity),
        mid_maturity=_pick(values, "Tc", args.tc, d.mid_maturity),
        horizon=_pick(values, "Th", args.th, d.horizon),
        vol=_pick(values, "vol", args.vol, d.vol),
        rate=_pick(values, "rate", args.rate, d.rate),
        dividend_yield=_pick(values, "yield", args.dividend_yield, d.dividend_yield),
    )
    scheme = HedgeScheme(
        _pick(values, "scheme", args.scheme, "bsm-dual", cast=HedgeScheme)
    )
    weights = solve_weights(cfg, scheme)
    spot0 = _pick(values, "spot0", args.spot0, None)
    spot_th = _pick(values, "spotTh", args.spot_th, None)
    want_sim = args.sim or values.get("sim", "").lower() in ("1", "true", "yes")

    # every number is computed before the first line is printed, so a
    # failing hedge prints nothing to stdout
    if want_sim:
        if spot0 is None:
            print("error: --sim needs --spot0 (or spot0 in the config)", file=sys.stderr)
            return 2
        seed = _pick(values, "seed", args.seed, _default_seed(), cast=int)
        sim_cfg = SimConfig(
            spot=spot0,
            drift=_pick(values, "mu", args.mu, 0.04),
            paths=_pick(values, "paths", args.paths, 10_000, cast=int),
            seed=seed,
            hedge=cfg,
            scheme=scheme,
        )
        summary = run_hedge_sim(sim_cfg)
        lines = [
            f"simulated paths: {summary.paths} (seed {seed}, drift {sim_cfg.drift:g})",
            f"MHE: {summary.mhe_pct:.2f}%  MAE: {summary.mae_pct:.2f}%  "
            f"RMSE: {summary.rmse:.3f}",
        ]
    elif spot0 is not None and spot_th is not None:
        report = true_error(cfg, weights, spot0, spot_th)
        lines = [
            f"gross error at horizon (spot {spot_th:g}): "
            f"{report.gross_error:.3f} ({report.gross_error_pct:.2f}%)",
            f"net cost at setup (spot {spot0:g}): "
            f"{report.net_cost:.3f} ({report.net_cost_pct:.2f}%)",
            f"true error: {report.true_error:.3f} ({report.true_error_pct:.2f}%)",
        ]
    elif spot_th is not None:
        eps, pct = gross_error(cfg, weights, spot_th)
        lines = [f"gross error at horizon (spot {spot_th:g}): {eps:.3f} ({pct:.2f}%)"]
    elif spot0 is not None:
        cost, pct = net_cost(cfg, weights, spot0)
        lines = [f"net cost at setup (spot {spot0:g}): {cost:.3f} ({pct:.2f}%)"]
    else:
        lines = []
    print(f"scheme: {scheme.value}")
    print(
        f"weights: low {weights.w_low:.4f}  mid {weights.w_mid:.4f}  "
        f"high {weights.w_high:.4f}"
    )
    print(f"determinant: {weights.determinant:.6f}")
    for line in lines:
        print(line)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PricingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
