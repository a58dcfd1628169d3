"""Tests of the benchmark itself, at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from check import mismatches, reference_report  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_tables_match_the_spec():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert sorted(run.PREDICTED) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_workload_runs_and_reports_every_metric(workload, trace):
    done = run_benchmark(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout[-3000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in spec}
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
        if not trace:
            assert value["value"] > 0, name
    if trace:
        assert "accounting: layers + unattributed = client time" in done.stdout


def test_output_check_rejects_a_wrong_expected_report():
    from repro.workloads import scaling_scenario

    offers = scaling_scenario(40, seed=5).flex_offers
    report = reference_report(offers)
    assert mismatches(json.loads(json.dumps(report)), report) == []
    wrong = json.loads(json.dumps(report))
    key = next(k for k, v in wrong["values"].items() if isinstance(v, float) and v)
    wrong["values"][key] *= 1 + 1e-6
    assert mismatches(report, wrong)
    wrong = json.loads(json.dumps(report))
    wrong["size"] += 1
    assert mismatches(report, wrong)
    assert mismatches(report, reference_report(offers[:-1]))


def test_attribution_credits_each_instant_once():
    spans = [
        (1, None, 1, "server.handle", 0, 100),
        (2, 1, 1, "service.submit", 10, 90),
        (3, 2, 1, "backend.evaluate_set", 20, 40),
        (4, 2, 1, "cluster.dispatch", 50, 80),
        (5, 2, 1, "cluster.dispatch", 60, 85),
        (6, None, 1, "io.encode", 100, 110),
    ]
    accounting = tracing.attribute(spans)
    assert accounting["self_ns"] == {
        "server.handle": 20, "service.submit": 25, "backend.evaluate_set": 20,
        "cluster.dispatch": 35, "io.encode": 10}
    assert accounting["root_ns"] == 110
    assert accounting["orphans"] == 0 and accounting["escaped_ns"] == 0
    orphaned = tracing.attribute(spans + [(7, 99, 1, "stream.apply", 0, 5)])
    assert orphaned["orphans"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "--workload", WORKLOAD_NAMES[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
