#!/usr/bin/env python3
"""Collect sets of benchmark runs, and compare two sets metric by metric.

Usage (from the repository root)::

    python3 perfbench/compare.py collect OUT_DIR [--runs 10] [--first-seed 1]
                                 [--workload NAME ...] [--trace 0|1]
    python3 perfbench/compare.py diff PARENT_DIR CHANGE_DIR

``collect`` runs ``perfbench/run.py`` once per seed and workload, with the
``run_seconds`` of ``BENCHMARK.json``, and keeps each run's standard output
as ``OUT_DIR/<workload>-<seed>.out``.

``diff`` reads two such directories.  For every workload and end-to-end
metric it prints each side's median and quartiles, each side's spread
(quartile distance over median, as ``statistics.quantiles(n=4)`` gives
it) against the metric's bound, and a verdict:

* ``improved`` — the change wins at least nine tenths of the run pairs
  (ties count for neither side) and the medians differ by more than the
  parent's quartile distance;
* ``worse`` — the change's median is worse than the parent's by more than
  the bound;
* ``unresolved`` — otherwise, when either side's spread exceeds the bound
  and not every change run reads better than every parent run;
* ``unchanged`` — otherwise.

With a single directory (``diff DIR DIR``) the table shows one set's own
spread, which is how the benchmark's steadiness is judged.  Exit status is
1 when any verdict is ``worse`` or any run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(out: Path, runs: int, first_seed: int, workloads, trace: int) -> int:
    spec = load_spec()
    names = workloads or [workload["name"] for workload in spec["workloads"]]
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for seed in range(first_seed, first_seed + runs):
        for name in names:
            command = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            (out / f"{name}-{seed}.out").write_text(done.stdout)
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{name} seed {seed}: exit {done.returncode} {last[0][:160]}", flush=True)
            status |= done.returncode
    return status


def read_runs(directory: Path) -> dict:
    """``{workload: [(seed, result, context), ...]}`` sorted by seed."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.out")):
        lines = path.read_text().strip().splitlines()
        if len(lines) < 2:
            raise SystemExit(f"{path}: not a complete run")
        context = json.loads(lines[-2])["context"]
        runs[context["workload"]].append((context["seed"], json.loads(lines[-1]), context))
    return {name: sorted(values, key=lambda run: run[0]) for name, values in runs.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, middle, high


def spread(values) -> float:
    low, _middle, high = quartiles(values)
    median = statistics.median(values)
    return (high - low) / abs(median) if median else float("inf")


def verdict(parent, change, bound: float, higher_better: bool) -> str:
    sign = 1 if higher_better else -1
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    low, _middle, high = quartiles(parent)
    if (pairs and wins >= 0.9 * len(pairs)
            and sign * (change_median - parent_median) > high - low):
        return "improved"
    worse_by = -sign * (change_median - parent_median) / abs(parent_median or 1)
    if worse_by > bound:
        return "worse"
    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (spread(parent) > bound or spread(change) > bound) and not every_better:
        return "unresolved"
    return "unchanged"


def diff(parent_dir: Path, change_dir: Path) -> int:
    spec = load_spec()
    parent_runs, change_runs = read_runs(parent_dir), read_runs(change_dir)
    status = 0
    header = (f"{'workload':<15} {'metric':<22} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'spread p/c':>13} {'bound':>6}  verdict")
    print(header)
    for workload in spec["workloads"]:
        name = workload["name"]
        parent, change = parent_runs.get(name, []), change_runs.get(name, [])
        if not parent or not change:
            print(f"{name:<15} (no runs on one side)")
            continue
        incorrect = sum(not run[1]["correct"] for run in parent + change)
        if incorrect:
            print(f"{name:<15} {incorrect} incorrect run(s)")
            status = 1
        for metric in spec["end_to_end"]:
            key = metric["name"]
            p = [run[1]["metrics"][key]["value"] for run in parent]
            c = [run[1]["metrics"][key]["value"] for run in change]
            result = verdict(p, c, metric["bound"], metric["better"] == "higher")
            status |= result == "worse"
            cells = []
            for values in (p, c):
                low, _middle, high = quartiles(values)
                cells.append(f"{statistics.median(values):.4g} [{low:.4g}, {high:.4g}]")
            print(f"{name:<15} {key:<22} {cells[0]:>34} {cells[1]:>34} "
                  f"{spread(p):>6.3f}/{spread(c):<6.3f} {metric['bound']:>6.3f}  {result}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("collect", help="run the benchmark over several seeds")
    run.add_argument("out", type=Path)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--workload", action="append")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    compare = commands.add_parser("diff", help="compare two directories of runs")
    compare.add_argument("parent", type=Path)
    compare.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.command == "collect":
        return collect(args.out, args.runs, args.first_seed, args.workload, args.trace)
    return diff(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
