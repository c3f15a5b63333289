"""One benchmark process: set up a workload, then measure it.

Started by ``run.py`` from the root of a checkout, never by hand.  It
imports ``dualpricer`` from the checkout's ``src`` directory, warms up the
public functions its workload uses and prints ``READY``; ``run.py`` times
set-up from process start to that line.  With ``--setup-only`` it exits
there.  Otherwise it measures one caller in a closed loop for ``--seconds``
and prints one JSON object: measured values, operations attempted and
failed, and the first failures.

With ``--trace 1`` it alternates untraced and traced passes over the same
first requests of the seed and reports per-layer metrics from the spans of
the traced passes, plus the import-time breakdown of a fresh interpreter
and, on ``cli-reports``, the wall time of fresh CLI processes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected"

WORKLOADS = ("lattice-requests", "hedge-mc", "cli-reports")
LATTICE_STEPS = (100, 365, 1000)
EUROPEAN_SHARE = 4  # one contract in this many is European
HEDGE_PATHS = 1_000_000
HEDGE_RECHECKS = 3
TRACED_REQUESTS = {"lattice-requests": 100, "hedge-mc": 10}
FRESH_REPEATS = 5

AMERICAN_PUT = ["--style", "american", "--right", "put", "-S", "36", "-K", "40",
                "-r", "0.06", "--vol", "0.4", "-T", "1", "--dual", "--greeks"]
EUROPEAN_CALL = ["--style", "european", "--right", "call", "-S", "42", "-K", "40",
                 "-r", "0.05", "-q", "0.02", "--vol", "0.3", "-T", "0.5", "--dual", "--greeks"]
HEDGE_CONFIG_TEXT = "command = hedge\nscheme = wu-zhu\nspot0 = 50\nspotTh = 48\n"
HEDGE_CONFIG = OUT / "hedge.cfg"
COMMANDS = [(f"t{i}", ["table", f"t{i}"]) for i in range(1, 8)] + [
    ("t2-csv", ["table", "t2", "--format", "csv"]),
    ("price-american", ["price", *AMERICAN_PUT]),
    ("price-european", ["price", *EUROPEAN_CALL]),
    ("hedge-point", ["hedge", "--spot0", "55", "--spotTh", "45"]),
    ("hedge-sim", ["hedge", "--sim", "--spot0", "50"]),
    ("hedge-config", ["hedge", "--config", str(HEDGE_CONFIG)]),
]


def child_env():
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.pop("DUALPRICER_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def import_package(with_cli):
    if not (SRC / "dualpricer" / "__init__.py").is_file():
        raise SystemExit(f"no dualpricer sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dualpricer

    if Path(dualpricer.__file__).resolve().parent != (SRC / "dualpricer").resolve():
        raise SystemExit(f"dualpricer imported from {dualpricer.__file__}, not {SRC}")
    if with_cli:
        import dualpricer.cli  # noqa: F401
    return dualpricer


class Failures:
    """Operations attempted and failed; keeps the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reasons):
        self.attempted += 1
        if reasons:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append("; ".join(reasons))


# --- lattice-requests ----------------------------------------------------


def lattice_requests(dp, seed):
    """Endless seeded stream of (spec, market, steps) requests.

    Step counts and exercise styles come in shuffled blocks that hold each
    step count equally often and one European contract in four, so the
    cost mix, which sets the latency percentiles, does not vary by seed.
    """
    rng = random.Random(seed)
    styles = [dp.ExerciseStyle.EUROPEAN] + [dp.ExerciseStyle.AMERICAN] * (EUROPEAN_SHARE - 1)
    block = [(steps, style) for steps in LATTICE_STEPS for style in styles]
    while True:
        rng.shuffle(block)
        for steps, style in block:
            right = rng.choice((dp.OptionRight.PUT, dp.OptionRight.CALL))
            spot, strike = rng.uniform(30, 60), rng.uniform(30, 60)
            rate, dividend_yield = rng.uniform(0, 0.08), rng.uniform(0, 0.06)
            vol, maturity = rng.uniform(0.15, 0.5), rng.uniform(0.25, 2.0)
            yield (
                dp.OptionSpec(right, style, strike, maturity),
                dp.MarketState(spot, rate, dividend_yield, vol),
                steps,
            )


def lattice_request(dp, request):
    spec, mkt, steps = request
    engine = dp.LatticeEngine(steps)
    out = {
        "price": dp.lattice_price(spec, mkt, steps),
        "delta": dp.lattice_delta(spec, mkt, steps),
        "gamma": dp.lattice_gamma(spec, mkt, steps),
        "dual_price": dp.price_via_dual(spec, mkt, engine),
        "dual_delta": dp.delta_via_dual(spec, mkt, engine),
        "dual_gamma": dp.gamma_via_dual(spec, mkt, engine),
    }
    if spec.style is dp.ExerciseStyle.EUROPEAN:
        analytic = dp.AnalyticEngine()
        out["bsm_price"] = analytic.price(spec, mkt)
        out["bsm_delta"] = analytic.delta(spec, mkt)
        out["bsm_gamma"] = analytic.gamma(spec, mkt)
    return out


def lattice_check(request, out):
    spec, _, steps = request
    bad = [k for k, v in out.items() if not math.isfinite(v)]
    if bad:
        return [f"non-finite {bad}"]
    reasons = []
    if abs(out["dual_price"] - out["price"]) > 1e-9 * abs(out["price"]):
        reasons.append(f"dual price {out['dual_price']!r} vs {out['price']!r}")
    if abs(out["dual_gamma"] - out["gamma"]) > 1e-9:
        reasons.append(f"dual gamma {out['dual_gamma']!r} vs {out['gamma']!r}")
    if abs(out["dual_delta"] - out["delta"]) > 0.5 / steps:
        reasons.append(f"dual delta {out['dual_delta']!r} vs {out['delta']!r}")
    if "bsm_price" in out and abs(out["price"] - out["bsm_price"]) > 0.1 * spec.strike / steps:
        reasons.append(f"european tree {out['price']!r} vs bsm {out['bsm_price']!r}")
    return reasons


def run_lattice(dp, request, failures):
    try:
        out = lattice_request(dp, request)
    except dp.PricingError as exc:
        failures.record([f"PricingError: {exc}"])
        return
    failures.record([f"{r} ({request})" for r in lattice_check(request, out)])


# --- hedge-mc ------------------------------------------------------------


def hedge_requests(dp, seed):
    from dualpricer.tables import DEFAULT_HEDGE

    rng = random.Random(seed)
    schemes = (dp.HedgeScheme.BSM_DUAL, dp.HedgeScheme.WU_ZHU)
    while True:
        yield dp.SimConfig(
            spot=rng.uniform(46, 54),
            drift=rng.choice((0.04, 0.08)),
            paths=HEDGE_PATHS,
            seed=rng.randrange(1 << 32),
            hedge=DEFAULT_HEDGE,
            scheme=rng.choice(schemes),
        )


def hedge_request(dp, cfg):
    s = dp.run_hedge_sim(cfg)
    return (s.mhe_pct, s.mae_pct, s.rmse, s.paths)


def hedge_check(out):
    if not all(math.isfinite(v) for v in out):
        return [f"non-finite summary {out}"]
    return [] if out[3] == HEDGE_PATHS else [f"summary has {out[3]} paths"]


def weight_residual(dp, cfg, scheme):
    """Largest residual of the value/strike-slope/maturity-slope system."""
    import dataclasses

    w = dp.solve_weights(cfg, scheme)
    if scheme is dp.HedgeScheme.WU_ZHU:
        cfg = dataclasses.replace(cfg, rate=0.0, dividend_yield=0.0, horizon=cfg.wing_maturity)
    co = dp.dual_coefficients(cfg)
    hs = (co.h_low, co.h_mid, co.h_high)
    alphas = (co.alpha_wing, co.alpha_mid, co.alpha_wing)
    ws = (w.w_low, w.w_mid, w.w_high)
    rows = (
        [1.0 + co.gamma * h * h for h in hs],
        [(1.0 + co.beta * h) * h for h in hs],
        [h * h - a for h, a in zip(hs, alphas)],
    )
    return max(abs(sum(c * x for c, x in zip(row, ws)) - rhs) for row, rhs in zip(rows, (1.0, 0.0, 1.0)))


def hedge_end_checks(dp, configs, outs, failures):
    """Bit-for-bit repeat of the first requests and the weight residuals."""
    for cfg, out in zip(configs, outs):
        if out is None:
            continue
        again = hedge_request(dp, cfg)
        failures.record([] if again == out else [f"seed {cfg.seed} gave {out} then {again}"])
    for scheme in dp.HedgeScheme:
        residual = weight_residual(dp, configs[0].hedge, scheme)
        failures.record([] if residual < 1e-10 else [f"{scheme.value} residual {residual:.3e}"])


def run_hedge(dp, cfg, failures):
    try:
        out = hedge_request(dp, cfg)
    except dp.PricingError as exc:
        failures.record([f"PricingError: {exc}"])
        return None
    failures.record(hedge_check(out))
    return out


STREAMS = {"lattice-requests": (lattice_requests, run_lattice), "hedge-mc": (hedge_requests, run_hedge)}


# --- cli-reports ---------------------------------------------------------


@functools.cache
def expected_output(label):
    return (EXPECTED / f"{label}.txt").read_text(encoding="utf-8")


def cli_in_process(label, argv, failures):
    from dualpricer import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    reasons = [] if code == 0 else [f"{label}: in-process exit {code}"]
    if buf.getvalue() != expected_output(label):
        reasons.append(f"{label}: in-process output differs from the stored text")
    failures.record(reasons)


def cli_fresh(label, argv, failures):
    """One fresh ``python -m dualpricer.cli`` process; returns its wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dualpricer.cli", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=60,
    )
    wall = time.perf_counter() - start
    reasons = [] if proc.returncode == 0 else [f"{label}: exit {proc.returncode}: {proc.stderr[-300:]!r}"]
    if proc.stdout != expected_output(label).encode("utf-8"):
        reasons.append(f"{label}: stdout differs from the stored text")
    failures.record(reasons)
    return wall


def prepare_cli():
    OUT.mkdir(exist_ok=True)
    HEDGE_CONFIG.write_text(HEDGE_CONFIG_TEXT, encoding="utf-8")


# --- measurement ---------------------------------------------------------


def warm_up(dp, workload, seed, failures):
    """One call of each public function the workload uses."""
    if workload == "lattice-requests":
        for style in (dp.ExerciseStyle.AMERICAN, dp.ExerciseStyle.EUROPEAN):
            request = (
                dp.OptionSpec(dp.OptionRight.PUT, style, 40.0, 1.0),
                dp.MarketState(36.0, 0.06, 0.0, 0.4),
                LATTICE_STEPS[0],
            )
            run_lattice(dp, request, failures)
    elif workload == "hedge-mc":
        run_hedge(dp, next(hedge_requests(dp, seed)), failures)
    else:
        prepare_cli()
        for label, argv in COMMANDS:
            cli_in_process(label, argv, failures)


def latency_summary(latencies, elapsed):
    ms = [1e3 * x for x in latencies]
    return {
        "request_ms_p50": statistics.median(ms),
        "request_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "requests_per_s": len(ms) / elapsed,
        "samples": len(ms),
    }


def closed_loop(call, requests, seconds):
    """Send the next request only after the previous one returned."""
    latencies, outs = [], []
    begin = time.perf_counter()
    for request in requests:
        start = time.perf_counter()
        outs.append(call(request))
        latencies.append(time.perf_counter() - start)
        if time.perf_counter() - begin >= seconds:
            break
    return latencies, outs, time.perf_counter() - begin


def measure(dp, workload, seed, seconds, failures):
    if workload == "lattice-requests":
        latencies, _, elapsed = closed_loop(
            lambda request: run_lattice(dp, request, failures), lattice_requests(dp, seed), seconds
        )
        return latency_summary(latencies, elapsed)
    if workload == "hedge-mc":
        latencies, outs, elapsed = closed_loop(
            lambda cfg: run_hedge(dp, cfg, failures), hedge_requests(dp, seed), seconds
        )
        hedge_end_checks(dp, list(itertools.islice(hedge_requests(dp, seed), HEDGE_RECHECKS)), outs, failures)
        result = latency_summary(latencies, elapsed)
        result["paths_per_s"] = HEDGE_PATHS * len(latencies) / elapsed
        return result
    return measure_cli(seed, seconds, failures)


def command_cycles(seed):
    """Endless cycles of the command list, each in a seeded order."""
    rng = random.Random(seed)
    while True:
        yield from rng.sample(COMMANDS, len(COMMANDS))


def measure_cli(seed, seconds, failures):
    """In-process ``cli.main`` requests; ``reports_s`` is the median whole cycle.

    One untimed cycle of fresh processes afterwards checks their output too.
    """
    latencies, _, elapsed = closed_loop(
        lambda command: cli_in_process(*command, failures), command_cycles(seed), seconds
    )
    for label, argv in COMMANDS:
        cli_fresh(label, argv, failures)
    n = len(COMMANDS)
    cycles = [sum(latencies[i : i + n]) for i in range(0, len(latencies) - n + 1, n)]
    result = latency_summary(latencies, elapsed)
    result["reports_s"] = statistics.median(cycles)
    result["reports_passes"] = len(cycles)
    return result


def measure_fresh_cli(seed, seconds, failures):
    """Whole cycles of fresh ``python -m dualpricer.cli`` processes.

    Fresh-process wall time moves with the load of the host far more than
    in-process time, so it is a per-layer figure, not an end-to-end one.
    """
    commands = command_cycles(seed)
    latencies = []
    begin = time.perf_counter()
    while not latencies or time.perf_counter() - begin < seconds:
        for _ in COMMANDS:
            latencies.append(cli_fresh(*next(commands), failures))
    summary = latency_summary(latencies, time.perf_counter() - begin)
    return {"cli.fresh_ms_p50": summary["request_ms_p50"], "cli.fresh_ms_p90": summary["request_ms_p90"]}


def fresh_wall(code):
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True)
    return time.perf_counter() - start


def import_breakdown():
    """Fresh-interpreter import costs, medians of a few processes.

    ``cli.import_s`` is the wall time of importing ``dualpricer.cli``
    beyond a bare interpreter; the numpy and scipy shares are the
    cumulative ``-X importtime`` figures of each package's top-level
    imports.
    """
    interp = statistics.median(fresh_wall("pass") for _ in range(FRESH_REPEATS))
    imports = statistics.median(fresh_wall("import dualpricer.cli") for _ in range(FRESH_REPEATS))
    shares = {"numpy": [], "scipy": []}
    for _ in range(FRESH_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dualpricer.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
        )
        for pkg, seconds in package_import_seconds(proc.stderr).items():
            shares[pkg].append(seconds)
    return {
        "cli.interp_s": interp,
        "cli.import_s": imports - interp,
        "cli.import_numpy_s": statistics.median(shares["numpy"]),
        "cli.import_scipy_s": statistics.median(shares["scipy"]),
    }


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def package_import_seconds(stderr):
    """Cumulative seconds of numpy and scipy imports not nested in their own package.

    ``-X importtime`` prints a module after the modules it imported, indented
    two spaces deeper; walking the lines backwards sees each parent first.
    """
    totals = {"numpy": 0.0, "scipy": 0.0}
    stack = []
    for line in reversed(stderr.splitlines()):
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        depth, name = len(match.group(3)), match.group(4)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        pkg = name.split(".", 1)[0]
        if pkg in totals and not any(p == pkg for _, p in stack):
            totals[pkg] += int(match.group(2)) * 1e-6
        stack.append((depth, pkg))
    return totals


def traced_pass(dp, workload, seed, failures):
    """The (label, request) items of one traced pass and the call for each."""
    if workload == "cli-reports":
        return [(label, (label, argv)) for label, argv in COMMANDS], lambda c: cli_in_process(*c, failures)
    stream, run = STREAMS[workload]
    items = list(enumerate(itertools.islice(stream(dp, seed), TRACED_REQUESTS[workload])))
    return items, lambda request: run(dp, request, failures)


def measure_traced(dp, workload, seed, seconds, failures):
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install("dualpricer")
    items, call = traced_pass(dp, workload, seed, failures)

    def run_pass(number, traced):
        start = time.perf_counter()
        for label, request in items:
            tracer.request = (number, label) if traced else None
            call(request)
        tracer.request = None
        return time.perf_counter() - start

    missed = tracer.check_bindings(lambda: run_pass(-1, True))
    failures.record([f"{name}: {w} spans for {e} calls" for name, (w, e) in missed.items()])

    untraced, traced = [], []
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin < seconds:
        tracer.disable()
        untraced.append(run_pass(len(traced), False))
        tracer.enable()
        traced.append(run_pass(len(traced), True))
    tracer.disable()

    metrics = tracing.layer_metrics(tracer.spans, len(traced), len(items))
    metrics["trace.slowdown"] = statistics.median(traced) / statistics.median(untraced)
    if workload == "cli-reports":
        metrics.update(measure_fresh_cli(seed, seconds / 2, failures))
    metrics.update(import_breakdown())
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{workload}-seed{seed}.jsonl")
    return {"metrics": metrics, "traced_passes": len(traced), "requests_per_pass": len(items)}


def environment(dp):
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": dp.BACKEND,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    dp = import_package(with_cli=args.workload == "cli-reports")
    failures = Failures()
    warm_up(dp, args.workload, args.seed, failures)
    print("READY", flush=True)
    if args.setup_only:
        return
    if args.trace:
        result = measure_traced(dp, args.workload, args.seed, args.seconds, failures)
    else:
        result = measure(dp, args.workload, args.seed, args.seconds, failures)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(
        attempted=failures.attempted,
        failed=failures.failed,
        failures=failures.reasons,
        environment=environment(dp),
    )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
