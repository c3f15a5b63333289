"""Command-line front end.

Three subcommands: ``price`` for one option (direct and swapped-problem
pricing side by side), ``table`` for the canned t1-t7 reports, and
``hedge`` for weights, error reports, and simulation.  Exit codes: 0 on
success, 1 on numerical or domain failures, 2 on usage errors.

A setting that the chosen path never reads, given as a flag or as an
experiment key, is an error and not silently dropped: ``--steps`` outside
the tree engine and t1-t3, ``--seed``/``--paths`` outside t7 and
``hedge --sim``, ``--mu`` without ``--sim``, and ``--spotTh`` with it.
So the optional settings default to ``None`` here, and the path that
reads one applies its default: the table builders, ``LatticeEngine`` and
``cmd_hedge``.

``main`` builds its parser once per process and reuses it, so in-process
callers pay for argument parsing, not for building the parser.  Commands
are looked up by name on every call, never held by the parser, so a
rebinding of ``cmd_price``, ``cmd_table`` or ``cmd_hedge`` (a tracer's
wrapper, a test's monkeypatch) is honoured.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import experiment, tables
from .analytic import ExerciseStyle, MarketState, OptionRight, OptionSpec
from .duality import AnalyticEngine, LatticeEngine, from_dual_valuation, to_dual
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
    p.add_argument("--steps", type=int, help="tree steps (default 365)")
    p.add_argument(
        "--engine",
        choices=["auto", "analytic", "lattice"],
        default="auto",
        help="auto picks analytic for European, lattice for American",
    )
    p.add_argument("--dual", action="store_true", help="also price the swapped problem")
    p.add_argument("--greeks", action="store_true", help="also print delta and gamma")

    t = sub.add_parser("table", help="emit one of the canned reports t1..t7")
    t.add_argument("name", choices=sorted(tables.TABLE_BUILDERS))
    t.add_argument("--format", choices=["table", "csv"], default="table")
    t.add_argument("--out", help="write to this path instead of stdout")
    t.add_argument("--steps", type=int, help="tree steps (t1-t3, default 365)")
    t.add_argument("--seed", type=int, help="simulation seed (t7, default 42)")
    t.add_argument("--paths", type=int, help="simulated paths (t7, default 10000)")

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
    # None when absent, not False, so that a config file's sim still applies
    h.add_argument(
        "--sim", action="store_true", default=None, help="simulate instead of point eval"
    )
    h.add_argument("--paths", type=int)
    h.add_argument("--mu", type=float, help="physical drift for --sim")
    h.add_argument("--seed", type=int)
    h.add_argument("--config", help="experiment file supplying defaults")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _unread(where: str, **settings) -> None:
    """Reject the settings given (not None) to a path that never reads them."""
    given = [f"--{name}" for name, value in settings.items() if value is not None]
    if given:
        raise PricingError(f"{where} does not read {', '.join(given)}")


def cmd_price(args) -> int:
    spec = OptionSpec(
        right=OptionRight(args.right),
        style=ExerciseStyle(args.style),
        strike=args.strike,
        maturity=args.maturity,
    )
    mkt = MarketState(args.spot, args.rate, args.dividend_yield, args.vol)
    if args.engine == "lattice" or (
        args.engine == "auto" and spec.style is ExerciseStyle.AMERICAN
    ):
        engine = LatticeEngine() if args.steps is None else LatticeEngine(args.steps)
    else:
        _unread("the closed-form engine", steps=args.steps)
        engine = AnalyticEngine()

    # one engine call values the option and its swapped twin, and every
    # number is computed before the first line is printed, so a failing
    # dual leg prints nothing to stdout
    pairs = [(spec, mkt), to_dual(spec, mkt)] if args.dual else [(spec, mkt)]
    if args.greeks:
        values = engine.valuations(pairs)
    else:
        values = [(price,) for price in engine.prices(pairs)]
    direct = values[0][0]
    lines = [f"direct price: {direct:.3f}"]
    if args.greeks:
        lines += [f"direct delta: {values[0][1]:.4f}", f"direct gamma: {values[0][2]:.4f}"]
    if args.dual:
        dual = from_dual_valuation(spec, mkt, values[1]) if args.greeks else values[1]
        scale = max(abs(direct), 1e-300)
        lines += [
            f"dual price:   {dual[0]:.3f}",
            f"relative discrepancy: {abs(dual[0] - direct) / scale:.2e}",
        ]
        if args.greeks:
            lines += [f"dual delta:   {dual[1]:.4f}", f"dual gamma:   {dual[2]:.4f}"]
    for line in lines:
        print(line)
    return 0


# The settings each table reads; its builder holds their defaults.
_TABLE_SETTINGS = {"t1": ("steps",), "t2": ("steps",), "t3": ("steps",), "t7": ("seed", "paths")}


def cmd_table(args) -> int:
    name = args.name
    settings = {"steps": args.steps, "seed": args.seed, "paths": args.paths}
    reads = _TABLE_SETTINGS.get(name, ())
    _unread(f"table {name}", **{k: v for k, v in settings.items() if k not in reads})
    table = tables.TABLE_BUILDERS[name](
        **{k: v for k, v in settings.items() if v is not None}
    )
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


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _pick(values: dict, key: str, flag, default, cast=float):
    """Flag beats experiment file beats built-in default.

    The key is taken out of ``values`` and its value must cast even when a
    flag overrides it, so every key left over is one that nothing reads.
    """
    value = default
    if key in values:
        raw = values.pop(key)
        try:
            value = cast(raw)
        except (KeyError, ValueError):
            raise PricingError(f"bad experiment value for {key!r}: {raw!r}")
    return value if flag is None else flag


def cmd_hedge(args) -> int:
    values: dict[str, str] = {}
    if args.config:
        values = experiment.load_file(args.config)
        command = values.pop("command")
        if command != "hedge":
            raise PricingError(f"experiment file drives command {command!r}, not 'hedge'")

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
    spot0 = _pick(values, "spot0", args.spot0, None)
    spot_th = _pick(values, "spotTh", args.spot_th, None)
    want_sim = _pick(values, "sim", args.sim, False, cast=lambda raw: _BOOLEANS[raw.lower()])
    # only --sim reads these, and it applies their defaults
    seed = _pick(values, "seed", args.seed, None, cast=int)
    drift = _pick(values, "mu", args.mu, None)
    paths = _pick(values, "paths", args.paths, None, cast=int)
    if values:
        raise PricingError(f"unknown experiment key(s): {', '.join(map(repr, values))}")
    if want_sim:
        _unread("hedge --sim", spotTh=spot_th)
    else:
        _unread("hedge without --sim", seed=seed, mu=drift, paths=paths)
    weights = solve_weights(cfg, scheme)

    # every number is computed before the first line is printed, so a
    # failing hedge prints nothing to stdout
    if want_sim:
        if spot0 is None:
            print("error: --sim needs --spot0 (or spot0 in the config)", file=sys.stderr)
            return 2
        seed = 42 if seed is None else seed
        drift = 0.04 if drift is None else drift
        paths = 10_000 if paths is None else paths
        sim_cfg = SimConfig(spot0, drift, paths, seed, cfg, scheme)
        summary = run_hedge_sim(sim_cfg)
        lines = [
            f"simulated paths: {summary.paths} (seed {seed}, drift {drift:g})",
            f"MHE: {summary.mhe_pct:.2f}%  MAE: {summary.mae_pct:.2f}%  "
            f"RMSE: {summary.rmse:.3f}",
        ]
    elif spot0 is not None and spot_th is not None:
        (report,) = true_error(cfg, (weights,), spot0, spot_th)
        lines = [
            f"gross error at horizon (spot {spot_th:g}): "
            f"{report.gross_error:.3f} ({report.gross_error_pct:.2f}%)",
            f"net cost at setup (spot {spot0:g}): "
            f"{report.net_cost:.3f} ({report.net_cost_pct:.2f}%)",
            f"true error: {report.true_error:.3f} ({report.true_error_pct:.2f}%)",
        ]
    elif spot_th is not None:
        ((eps, pct),), _ = gross_error(cfg, (weights,), spot_th)
        lines = [f"gross error at horizon (spot {spot_th:g}): {eps:.3f} ({pct:.2f}%)"]
    elif spot0 is not None:
        ((cost, pct),), _ = net_cost(cfg, (weights,), spot0)
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
    args = _parser().parse_args(argv)
    commands = {"price": cmd_price, "table": cmd_table, "hedge": cmd_hedge}
    try:
        return commands[args.command](args)
    except (PricingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
