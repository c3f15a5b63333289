"""Tiny-size smoke run of the benchmark.

Runs every workload for one second, untraced and traced, and checks that
every metric named in BENCHMARK.json is emitted with its unit and a sample
count, that no check failed, and that each per-layer metric is non-zero on
at least one workload.  Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def run(request):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "7",
         "--seconds", "1", "--trace", str(request.param)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return request.param, lines[:-1], json.loads(lines[-1])


def test_every_metric_is_emitted_with_unit_and_count(run):
    trace, lines, summary = run
    named = SPEC["per_layer" if trace else "end_to_end"]
    for workload in WORKLOADS:
        for metric in named:
            emitted = summary["metrics"][f"{workload}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            pattern = rf"^{re.escape(workload)}\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\s+n=[1-9]"
            assert any(re.match(pattern, line) for line in lines), (workload, metric["name"])
        assert any(re.match(rf"^{re.escape(workload)}\s+error_rate\s+0\s+ratio\s+n=[1-9]", line) for line in lines)
    assert len(summary["metrics"]) == len(WORKLOADS) * len(named)


def test_no_check_failed(run):
    _, _, summary = run
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0


def test_end_to_end_metrics_are_positive(run):
    trace, _, summary = run
    if trace:
        pytest.skip("per-layer metrics may be 0 on a workload that bypasses the layer")
    assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_each_layer_metric_moves_on_some_workload(run):
    trace, _, summary = run
    if not trace:
        pytest.skip("end-to-end run")
    for metric in SPEC["per_layer"]:
        values = [summary["metrics"][f"{w}.{metric['name']}"]["value"] for w in WORKLOADS]
        assert any(v > 0 for v in values), metric["name"]
