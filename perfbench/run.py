"""dualpricer benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice-requests --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 1

Each workload is one caller in a closed loop inside a fresh worker process
(``worker.py``).  With ``--trace 0`` set-up is timed on several fresh
workers and the last one measures the end-to-end metrics; with
``--trace 1`` one worker reports the per-layer metrics of a traced run.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it give every metric with its
unit and sample count, the environment, and ``error_rate``.  The full
record is also written to ``.perfbench_out/``.  The exit code is not 0,
and no result is printed, when a worker cannot start or crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import OUT, ROOT, WORKLOADS, child_env

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUPS = 7
WORKER_TIMEOUT = 150


class BenchError(Exception):
    pass


def start_worker(args, workload, extra):
    """Start one worker; return (process, seconds until it printed READY)."""
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT, proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    watchdog.cancel()
    if line.strip() != "READY":
        finish(proc)
        raise BenchError(f"{workload} worker did not get ready (exit {proc.returncode})")
    return proc, ready


def finish(proc):
    """Wait for a worker and return its last stdout line."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def run_workload(args, workload, spec):
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            proc, ready = start_worker(args, workload, ["--setup-only"])
            finish(proc)
            if proc.returncode != 0:
                raise BenchError(f"{workload} set-up worker exited {proc.returncode}")
            setups.append(ready)
    proc, ready = start_worker(args, workload, [])
    setups.append(ready)
    last = finish(proc)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    result = json.loads(last)

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = result["metrics"]
        samples = result["traced_passes"]
    else:
        values = dict(result, setup_s=statistics.median(setups))
        samples = result["samples"]
    metrics = {}
    for m in names:
        # A layer the workload never reaches leaves no spans: its metrics are 0.
        value = values.get(m["name"], 0.0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    counts = {m["name"]: samples for m in names}
    if not args.trace:
        counts["setup_s"] = len(setups)
        counts["peak_rss_mb"] = 1
        extras = {"paths_per_s": ("1/s", "samples"), "reports_s": ("s", "reports_passes")}
        for name, (unit, count_key) in extras.items():
            if name in result:
                metrics[name] = {"value": result[name], "unit": unit}
                counts[name] = result[count_key]
    return result, metrics, counts


def report(workload, result, metrics, counts):
    for name, m in metrics.items():
        print(f"{workload:17s} {name:30s} {m['value']:14.6g} {m['unit']:6s} n={counts[name]}")
    rate = result["failed"] / result["attempted"]
    print(f"{workload:17s} {'error_rate':30s} {rate:14.6g} {'ratio':6s} n={result['attempted']}")
    for reason in result["failures"]:
        print(f"{workload:17s} FAILED {reason}")


def read_loadavg():
    with open("/proc/loadavg", encoding="ascii") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    env = {"nproc": len(os.sched_getaffinity(0)), "loadavg_start": read_loadavg()}
    attempted = failed = 0
    all_metrics = {}
    records = {}
    try:
        for workload in workloads:
            result, metrics, counts = run_workload(args, workload, spec)
            report(workload, result, metrics, counts)
            attempted += result["attempted"]
            failed += result["failed"]
            env.update(result["environment"])
            records[workload] = {"result": result, "metrics": metrics, "samples": counts}
            names = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
            prefix = "" if len(workloads) == 1 else f"{workload}."
            all_metrics.update({prefix + k: v for k, v in metrics.items() if k in names})
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    env["loadavg_end"] = read_loadavg()
    print("environment " + json.dumps(env, sort_keys=True))
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": all_metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "workloads": records, "summary": summary}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
