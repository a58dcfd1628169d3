#!/usr/bin/env python3
"""End-to-end benchmark of the repro gateway, driven from outside the program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live-evaluate --seed 1 --seconds 10 --trace 0

The gateway (``repro.server.serve``) runs in a child process started by
``perfbench/gateway.py``; remote-churn also starts two shard workers with
``python -m repro.cluster.worker``.  This process is the only client: a
closed loop over loopback TCP with ``repro.server.GatewayClient``, on one
connection (two for tenant-mix), each sending its next request when the
previous reply arrived.  Children get an environment without ``REPRO_*``
variables and explicit session configs.

A run sets the system up three times (``setup_s`` is the median), keeps
the last one, measures for ``--seconds`` seconds, then checks outputs:
every reply is validated as it arrives, and each workload's final reports
are compared with the reference backend (see ``check.py``).  The last line
of standard output is the result object; the line before it holds the
run's context (host provenance, per-kind samples and tails).

``--trace 1`` installs span wrappers in the gateway and alternates
untraced and traced blocks of the measured phase.  It reports the
per-layer metrics, prints the layer table, checks the trace accounting,
and states the tracing overhead from the two kinds of block.

``--smoke`` shrinks every workload to a few hundred offers, for tests.
Exit status is 0 when a result was printed (``correct`` may still be
false), 1 when the run could not complete, 2 when no program is found.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "success_ratio": "ratio",
    "evaluate_p50_ms": "ms",
    "ingest_p50_ms": "ms",
    "gateway_peak_rss_mib": "MiB",
    "fleet_peak_rss_mib": "MiB",
}

#: Per-layer metrics (traced runs): name -> unit.  Times and counts are
#: per traced request unless the unit says otherwise.
PER_LAYER = {
    "server.handle_ms": "ms/req",
    "server.wire_ms": "ms/req",
    "server.gate_wait_ms": "ms/req",
    "server.rejected": "count/req",
    "io.decode_ms": "ms/req",
    "io.encode_ms": "ms/req",
    "io.bytes_in": "B/req",
    "io.bytes_out": "B/req",
    "service.submit_ms": "ms/req",
    "stream.bulk_arrive_ms": "ms/req",
    "stream.apply_ms": "ms/req",
    "stream.events": "count/req",
    "stream.live_offers_ms": "ms/req",
    "stream.live_matrix_ms": "ms/req",
    "backend.evaluate_set_ms": "ms/req",
    "backend.cache_key_ms": "ms/req",
    "backend.cache_hit_ratio": "ratio",
    "backend.fingerprint_calls": "count/eval",
    "measures.batch_values_ms": "ms/req",
    "persist.log_event_ms": "ms/req",
    "persist.wal_records": "count/req",
    "persist.commit_ms": "ms/req",
    "persist.checkpoint_ms": "ms/req",
    "persist.checkpoints": "count/req",
    "persist.recover_ms": "ms",
    "cluster.dispatch_ms": "ms/req",
    "cluster.shipped_offers": "count/req",
    "cluster.ref_hit_ratio": "ratio",
    "cluster.reships": "count/req",
    "cluster.redispatches": "count/req",
    "cluster.bytes_sent": "B/req",
    "cluster.bytes_recv": "B/req",
    "cluster.worker_peak_rss_mib": "MiB",
    "scheduling.schedule_ms": "ms/req",
    "market.clear_ms": "ms/req",
    "aggregation.aggregates_ms": "ms/req",
    "trace.client_ms": "ms/req",
    "trace.unattributed_ms": "ms/req",
    "trace.overhead_pct": "%",
}

#: Layers predicted to dominate client-observed time, per workload.
PREDICTED = {
    "live-evaluate": ("backend", "stream", "measures"),
    "durable-ingest": ("persist",),
    "remote-churn": ("cluster",),
    "tenant-mix": ("server", "io", "service"),
}

#: Trace accounting tolerance, as a share of client-observed time.
ACCOUNTING_TOLERANCE = 0.01
SETUPS = 3
TRACE_BLOCKS = 6


class RequestFailed(Exception):
    """A reply that was not 2xx, or whose content was wrong."""


def _die_with_parent() -> None:
    """Have the kernel kill this child if the benchmark itself dies."""
    import ctypes

    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


class Child:
    """One child process of the benchmark (the gateway or a worker)."""

    def __init__(self, process, name: str) -> None:
        self.process = process
        self.name = name
        self._drain: Optional[asyncio.Task] = None

    @classmethod
    async def spawn(cls, name: str, args: List[str], log: Path) -> "Child":
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        with open(log, "wb") as stderr:
            process = await asyncio.create_subprocess_exec(
                sys.executable, *args, cwd=str(ROOT), env=env,
                stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
                stderr=stderr, preexec_fn=_die_with_parent)
        return cls(process, name)

    async def line(self, timeout: float = 120.0) -> str:
        raw = await asyncio.wait_for(self.process.stdout.readline(), timeout)
        if not raw:
            raise RuntimeError(f"{self.name} exited (status {self.process.returncode})")
        return raw.decode().strip()

    async def command(self, text: str) -> None:
        self.process.stdin.write((text + "\n").encode())
        await self.process.stdin.drain()
        reply = await self.line()
        if reply != "ok":
            raise RuntimeError(f"{self.name} answered {reply!r} to {text!r}")

    def drain_output(self) -> None:
        async def drain() -> None:
            while await self.process.stdout.read(65536):
                pass

        self._drain = asyncio.ensure_future(drain())

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for row in status:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for {self.name}")

    async def stop(self, graceful: bool) -> None:
        """Close stdin (the gateway's shutdown signal) or kill, then reap."""
        process = self.process
        if process.returncode is None:
            if graceful:
                process.stdin.close()
                try:
                    await asyncio.wait_for(process.wait(), 60)
                except asyncio.TimeoutError:
                    process.kill()
            else:
                process.kill()
        await process.wait()
        if self._drain is not None:
            await self._drain


class System:
    """The gateway and workers of one set-up, plus the client connections."""

    def __init__(self) -> None:
        self.gateway: Optional[Child] = None
        self.workers: List[Child] = []
        self.addresses: List[str] = []
        self.clients: list = []
        self.config: dict = {}

    async def start_workers(self, count: int, logs: Path, tag: str) -> None:
        for index in range(count):
            worker = await Child.spawn(
                f"worker {index}",
                ["-m", "repro.cluster.worker", "--bind", "127.0.0.1:0"],
                logs / f"worker-{tag}-{index}.log")
            self.workers.append(worker)
            banner = await worker.line()
            if not banner.startswith("LISTENING "):
                raise RuntimeError(f"worker {index} said {banner!r}")
            self.addresses.append(banner.split()[1])
            worker.drain_output()

    async def start_gateway(self, config: dict, traced: bool, log: Path,
                            connections: int) -> None:
        from repro.server import GatewayClient

        args = [str(HERE / "gateway.py"), json.dumps(config)]
        self.gateway = await Child.spawn("gateway", args + (["--trace"] if traced else []), log)
        ready = await self.gateway.line()
        if not ready.startswith("ready "):
            raise RuntimeError(f"gateway said {ready!r}")
        port = int(ready.split()[1])
        self.clients = [await GatewayClient.open_tcp("127.0.0.1", port)
                        for _ in range(connections)]

    async def close_clients(self) -> None:
        for client in self.clients:
            try:
                await client.close()
            except OSError:
                pass
        self.clients = []

    async def stop(self, graceful: bool = True) -> None:
        await self.close_clients()
        if self.gateway is not None:
            await self.gateway.stop(graceful)
            self.gateway = None
        for worker in self.workers:
            await worker.stop(graceful=False)
        self.workers = []
        self.addresses = []


class Recorder:
    """Times every request and counts what the measured phase attempted."""

    def __init__(self, system: System) -> None:
        self.system = system
        self.recording = False
        self.tracing = False
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.traced_ns = 0
        self.traced_requests = 0
        self.traced_evaluates = 0
        self.cache = [0, 0]  # evaluate cache hits, misses while tracing

    async def send(self, conn: int, kind: str, path: str, payload: dict, check) -> dict:
        client = self.system.clients[conn]
        started = time.perf_counter_ns()
        response = await client.request("POST", path, payload)
        elapsed = time.perf_counter_ns() - started
        if response.ok:
            error = check(response.payload)
        else:
            error = f"HTTP {response.status}: {response.payload}"
        if self.recording:
            self.attempted += 1
            self.samples[kind].append(elapsed / 1e6)
            if self.tracing:
                self.traced_ns += elapsed
                self.traced_requests += 1
                if kind == "evaluate" and response.ok:
                    self.traced_evaluates += 1
                    self.cache[0] += response.payload["stats"]["cache_hits"]
                    self.cache[1] += response.payload["stats"]["cache_misses"]
        if error is not None:
            if self.recording:
                self.failed += 1
                self.errors.append(f"{kind}: {error}"[:500])
            raise RequestFailed(f"{kind}: {error}"[:500])
        return response.payload

    def operation(self, problems: List[str]) -> None:
        """Count one checked operation outside the loop (an output check)."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors += problems[:5]


# ---------------------------------------------------------------------- #
# Provenance
# ---------------------------------------------------------------------- #
def calibration_ms() -> float:
    """Median time of a fixed pure-Python kernel: host speed right now."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1000


def filesystem_type(path: Path) -> str:
    best, kind = "", "unknown"
    target = str(path.resolve())
    with open("/proc/mounts", encoding="utf-8") as mounts:
        for row in mounts:
            fields = row.split()
            point = fields[1]
            inside = target == point or target.startswith(point.rstrip("/") + "/")
            if inside and len(point) >= len(best):
                best, kind = point, fields[2]
    return kind


def cpu_ticks() -> List[int]:
    """The machine-wide CPU tick counters of ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as stat:
        return [int(field) for field in stat.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between."""
    spent = [late - early for early, late in zip(before, after)]
    return spent[7] / sum(spent) if sum(spent) else 0.0


def provenance(workdir: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "persist_fs": filesystem_type(workdir),
        "loadavg": list(os.getloadavg()),
        "calibration_ms": round(calibration_ms(), 3),
    }


# ---------------------------------------------------------------------- #
# Measurement
# ---------------------------------------------------------------------- #
def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def kind_summary(samples: List[float]) -> dict:
    """Median, and the highest of p99/p90/p75 with ten samples beyond it."""
    summary = {"n": len(samples), "p50_ms": round(statistics.median(samples), 4)}
    for q in (0.99, 0.90, 0.75):
        if len(samples) * (1 - q) >= 10:
            summary[f"p{round(q * 100)}_ms"] = round(percentile(samples, q), 4)
            break
    return summary


async def measure(workload, system: System, recorder: Recorder, seconds: float,
                  traced: bool) -> Dict[bool, List[float]]:
    """Run the closed loop; returns ``{traced: [wall_s, requests]}`` per block kind."""
    blocks = [False, True] * (TRACE_BLOCKS // 2) if traced else [False]
    length = seconds / len(blocks)
    totals = {False: [0.0, 0], True: [0.0, 0]}
    recorder.recording = True
    for on in blocks:
        if traced:
            await system.gateway.command("on" if on else "off")
        recorder.tracing = on
        deadline = time.perf_counter() + length

        async def drive(conn: int) -> None:
            while time.perf_counter() < deadline:
                await workload.cycle(conn, recorder.send)

        started, before = time.perf_counter(), recorder.attempted
        outcomes = await asyncio.gather(
            *(drive(conn) for conn in range(workload.connections)),
            return_exceptions=True)
        totals[on][0] += time.perf_counter() - started
        totals[on][1] += recorder.attempted - before
        for outcome in outcomes:
            if isinstance(outcome, BaseException) and not isinstance(outcome, RequestFailed):
                raise outcome
        if any(isinstance(outcome, RequestFailed) for outcome in outcomes):
            break
    if traced:
        await system.gateway.command("off")
    recorder.recording = False
    recorder.tracing = False
    return totals


async def set_up(workload, system: System, workdir: Path, rep: int, traced: bool) -> None:
    await system.start_workers(workload.workers, workdir, str(rep))
    config = {
        "host": "127.0.0.1",
        "port": 0,
        "workers": 4,
        "session_defaults": workload.session_config(system.addresses),
        "persist_root": str(workdir / f"persist-{rep}") if workload.durable else None,
    }
    await system.start_gateway(config, traced, workdir / f"gateway-{rep}.log",
                               workload.connections)
    await workload.populate(system.clients, system.addresses)
    await workload.warm(Recorder(system).send)
    system.config = config


async def recover(workload, system: System, workdir: Path, traced: bool,
                  recorder: Recorder, before: dict) -> dict:
    """Crash the gateway, restart it on the same root, compare the report."""
    from workloads import evaluate

    await system.stop(graceful=False)
    started = time.perf_counter()
    await system.start_gateway(system.config, traced, workdir / "gateway-recovered.log", 1)
    after = await evaluate(system.clients[0], workload.tenant)
    recovery_s = time.perf_counter() - started
    recorder.operation([] if after == before else
                       [f"recovered report differs: {after} != {before}"[:500]])
    stats = await system.clients[0].session_stats(workload.tenant)
    return {"recovery_s": recovery_s,
            "recover_ms": stats.payload["recovery"]["duration_s"] * 1000}


def layer_metrics(workload_name: str, dump: dict, recorder: Recorder,
                  totals: Dict[bool, List[float]], extra: dict) -> tuple:
    """Per-layer metrics, the printed layer table, and accounting problems."""
    import tracing

    accounting = tracing.attribute(dump["spans"])
    requests = max(1, recorder.traced_requests)
    client_ns = recorder.traced_ns
    wire_ns = client_ns - accounting["root_ns"]
    self_ns = dict(accounting["self_ns"])
    self_ns["server.wire"] = wire_ns
    unattributed = client_ns - sum(self_ns.values())
    counters: Dict[str, int] = defaultdict(int)
    for key, value in dump["counters"].items():
        counters[key.split("@")[0]] += value
    executor = dump["executor"]
    rps = {on: (count / wall if wall else 0.0) for on, (wall, count) in totals.items()}

    metrics: Dict[str, float] = {}
    for name in PER_LAYER:
        if name.endswith("_ms") and name[:-3] in self_ns:
            metrics[name] = self_ns[name[:-3]] / requests / 1e6
        elif name in counters:
            metrics[name] = counters[name] / requests
        else:
            metrics[name] = 0.0
    hits, misses = recorder.cache
    metrics["backend.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["backend.fingerprint_calls"] = (
        dump["counters"].get("backend.fingerprint_calls@EvaluateRequest", 0)
        / max(1, recorder.traced_evaluates))
    for key in ("shipped_offers", "reships", "redispatches"):
        metrics[f"cluster.{key}"] = executor.get(key, 0) / requests
    dispatched = executor.get("dispatched", 0)
    metrics["cluster.ref_hit_ratio"] = executor.get("ref_hits", 0) / dispatched if dispatched else 0.0
    metrics["cluster.worker_peak_rss_mib"] = extra.get("worker_peak_rss_mib", 0.0)
    metrics["persist.recover_ms"] = extra.get("recover_ms", 0.0)
    metrics["trace.client_ms"] = client_ns / requests / 1e6
    metrics["trace.unattributed_ms"] = unattributed / requests / 1e6
    metrics["trace.overhead_pct"] = (1 - rps[True] / rps[False]) * 100 if rps[False] else 0.0

    layers: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for name, value in self_ns.items():
        layer = name.split(".")[0]
        layers[layer][0] += accounting["count"].get(name, recorder.traced_requests)
        layers[layer][1] += value
    share = {layer: value / client_ns if client_ns else 0.0
             for layer, (_count, value) in layers.items()}
    table = ["layer         spans   self ms/req   share"]
    for layer, (count, value) in sorted(layers.items(), key=lambda item: -item[1][1]):
        table.append(f"{layer:<12} {count:>6} {value / requests / 1e6:>13.4f} "
                     f"{share[layer] * 100:>6.1f}%")
    table.append(f"{'unattributed':<12} {'':>6} {unattributed / requests / 1e6:>13.4f} "
                 f"{unattributed / client_ns * 100 if client_ns else 0:>6.1f}%")
    # The predicted layers dominate when together they take a larger share
    # of client time than any other single layer.
    predicted = PREDICTED[workload_name]
    predicted_share = sum(share.get(layer, 0.0) for layer in predicted)
    rival = max((value, layer) for layer, value in share.items() if layer not in predicted)
    verdict = "confirmed" if predicted_share > rival[0] else "NOT confirmed"
    table.append(f"prediction: {'+'.join(predicted)} dominate {workload_name} -> "
                 f"{predicted_share * 100:.1f}% of client time against "
                 f"{rival[1]} {rival[0] * 100:.1f}%, {verdict}")
    table.append(f"tracing overhead: {metrics['trace.overhead_pct']:.1f}% "
                 f"({rps[False]:.2f} req/s untraced blocks, {rps[True]:.2f} traced)")

    problems = []
    handled = accounting["roots"].get("server.handle", 0)
    if handled != recorder.traced_requests:
        problems.append(f"trace: {handled} handle spans for "
                        f"{recorder.traced_requests} traced requests")
    if accounting["orphans"]:
        problems.append(f"trace: {accounting['orphans']} spans without a recorded parent")
    limit = ACCOUNTING_TOLERANCE * client_ns
    if wire_ns < 0 or abs(unattributed) > limit or accounting["escaped_ns"] > limit:
        problems.append(f"trace: accounting off by {unattributed} ns, escaped "
                        f"{accounting['escaped_ns']} ns, wire {wire_ns} ns")
    table.append(f"accounting: layers + unattributed = client time within "
                 f"{ACCOUNTING_TOLERANCE:.0%}: {'ok' if not problems else 'FAILED'}")
    return metrics, table, problems


async def bench(args, workload, workdir: Path) -> tuple:
    traced = bool(args.trace)
    system = System()
    recorder = Recorder(system)
    context: dict = {"workload": workload.name, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace}
    extra: dict = {}
    try:
        setup_times = []
        for rep in range(1 if args.smoke else SETUPS):
            await system.stop()
            started = time.perf_counter()
            await set_up(workload, system, workdir, rep, traced)
            setup_times.append(time.perf_counter() - started)
        context["setup_runs_s"] = [round(value, 4) for value in setup_times]

        ticks = cpu_ticks()
        totals = await measure(workload, system, recorder, args.seconds, traced)
        context["steal_share"] = round(steal_share(ticks, cpu_ticks()), 4)
        wall = totals[False][0] + totals[True][0]
        completed = totals[False][1] + totals[True][1]

        client = system.clients[0]
        if workload.durable:
            await workload.crash_tail(client)
        reports = await workload.final_reports(client)
        recorder.operation(workload.check_reports(reports))
        gateway_rss = system.gateway.peak_rss_mib()
        worker_rss = [worker.peak_rss_mib() for worker in system.workers]
        extra["worker_peak_rss_mib"] = max(worker_rss, default=0.0)
        dump = None
        if traced:
            path = workdir / "spans.json"
            await system.gateway.command(f"dump {path}")
            dump = json.loads(path.read_text())
        if workload.durable:
            extra.update(await recover(workload, system, workdir, traced, recorder,
                                       reports[workload.tenant]))
            context["recovery_s"] = round(extra["recovery_s"], 4)
    finally:
        await system.stop()

    context["kinds"] = {kind: kind_summary(values)
                        for kind, values in sorted(recorder.samples.items())}
    context["errors"] = recorder.errors[:10]
    if traced:
        metrics, table, problems = layer_metrics(workload.name, dump, recorder, totals, extra)
        for problem in problems:
            recorder.operation([problem])
    else:
        table = []
        evaluate = recorder.samples.get("evaluate") or [0.0]
        ingest = recorder.samples.get("arrive") or [0.0]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "requests_per_s": completed / wall,
            "success_ratio": (recorder.attempted - recorder.failed) / recorder.attempted,
            "evaluate_p50_ms": statistics.median(evaluate),
            "ingest_p50_ms": statistics.median(ingest),
            "gateway_peak_rss_mib": gateway_rss,
            "fleet_peak_rss_mib": gateway_rss + sum(worker_rss),
        }
    units = PER_LAYER if traced else END_TO_END
    result = {
        "correct": recorder.failed == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return context, table, result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from repro.workloads import scaling_scenario
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.smoke)
    workload.bind_pool(scaling_scenario(workload.pool_size(), seed=args.seed).flex_offers)
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        host = provenance(workdir)
        context, table, result = asyncio.run(bench(args, workload, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    context["provenance"] = host
    for row in table:
        print(row)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
