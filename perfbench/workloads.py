"""The four gateway workloads: what each sends, and how its answers are checked.

Every workload is a stationary sliding window: a cycle adds a batch of
offers, retires the same number of the oldest, and evaluates the live
population, so each cycle does the same work.  Offer shapes come from
``scaling_scenario(pool, seed)``; a window walks through the pool and
wraps, and every arrival is named after its fresh offer id, so no
content-keyed cache ever sees an arrival twice.

A workload talks to the gateway only through ``send(conn, kind, path,
payload, check)`` (the harness times the call and counts it) and through
the plain ``GatewayClient`` it gets for set-up.  ``check`` returns an
error string for a wrong answer, or ``None``.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Dict, List, Optional

from check import mismatches, reference_report
from repro.io import (
    event_to_dict,
    flexoffer_from_dict,
    flexoffer_to_dict,
    request_to_dict,
)
from repro.service import (
    AggregateRequest,
    EvaluateRequest,
    ScheduleRequest,
    TradeRequest,
)
from repro.stream import OfferArrived, OfferExpired

EVALUATE = request_to_dict(EvaluateRequest())
SCHEDULE = request_to_dict(ScheduleRequest("earliest"))
TRADE = request_to_dict(TradeRequest())
AGGREGATE = request_to_dict(AggregateRequest())


def stream_payload(events: list, bulk: bool) -> dict:
    return {"kind": "stream", "events": events, "bulk": bulk}


def stream_check(applied: int, live: int) -> Callable[[dict], Optional[str]]:
    def check(payload: dict) -> Optional[str]:
        if payload.get("kind") != "stream":
            return f"expected a stream result, got {payload.get('kind')!r}"
        if payload["applied"] != applied or payload["live"] != live:
            return (f"stream applied/live {payload['applied']}/{payload['live']}"
                    f" != {applied}/{live}")
        return None

    return check


def evaluate_check(size: int) -> Callable[[dict], Optional[str]]:
    def check(payload: dict) -> Optional[str]:
        if payload.get("kind") != "evaluate":
            return f"expected an evaluate result, got {payload.get('kind')!r}"
        if payload["report"]["size"] != size or not payload["report"]["values"]:
            return f"evaluate size {payload['report']['size']} != {size}"
        return None

    return check


def kind_check(kind: str) -> Callable[[dict], Optional[str]]:
    def check(payload: dict) -> Optional[str]:
        if payload.get("kind") != kind:
            return f"expected a {kind} result, got {payload.get('kind')!r}"
        return None

    return check


class Window:
    """One tenant's live offers, oldest first, fed from a shared pool."""

    def __init__(self, pool_dicts: list, prefix: str, start: int) -> None:
        self.pool_dicts = pool_dicts
        self.prefix = prefix
        self.cursor = start
        self.serial = 0
        self.live: deque = deque()  # (offer_id, pool index)

    def arrivals(self, count: int) -> List[dict]:
        events = []
        for _ in range(count):
            offer_id = f"{self.prefix}-{self.serial}"
            index = self.cursor % len(self.pool_dicts)
            self.serial += 1
            self.cursor += 1
            self.live.append((offer_id, index))
            events.append({"kind": "arrived", "offer_id": offer_id,
                           "flex_offer": {**self.pool_dicts[index], "name": offer_id}})
        return events

    def retirements(self, count: int) -> List[dict]:
        return [{"kind": "expired", "offer_id": self.live.popleft()[0]}
                for _ in range(count)]

    def offers(self) -> list:
        return [flexoffer_from_dict({**self.pool_dicts[index], "name": offer_id})
                for offer_id, index in self.live]


class Workload:
    """Shared shape; subclasses size it and define cycle and checks."""

    name = ""
    #: Client connections driving the closed loop.
    connections = 1
    #: Cluster workers the benchmark starts for the gateway.
    workers = 0
    #: Cycles per connection run after set-up and discarded.
    warmup_cycles = 3
    durable = False

    def pool_size(self) -> int:
        raise NotImplementedError

    def bind_pool(self, pool) -> None:
        """Take the offer pool; arrival events are built from cached dicts."""
        self.pool_dicts = [flexoffer_to_dict(offer) for offer in pool]
        window = Window(self.pool_dicts, "probe", 0)
        arrivals = window.arrivals(1)
        if (arrivals != [event_to_dict(OfferArrived("probe-0", window.offers()[0]))]
                or window.retirements(1) != [event_to_dict(OfferExpired("probe-0"))]):
            raise RuntimeError("the stream event wire format changed")

    def session_config(self, workers: List[str]) -> dict:
        return {"backend": "numpy"}

    async def populate(self, clients: list, workers: List[str]) -> None:
        """Create the tenants and ingest their initial windows."""
        raise NotImplementedError

    async def warm(self, send) -> None:
        """Run and discard ``warmup_cycles`` cycles on every connection."""
        async def drive(conn: int) -> None:
            for _ in range(self.warmup_cycles):
                await self.cycle(conn, send)

        await asyncio.gather(*(drive(conn) for conn in range(self.connections)))

    async def cycle(self, conn: int, send) -> None:
        raise NotImplementedError

    async def final_reports(self, client) -> Dict[str, dict]:
        """``{tenant: report}`` for the tenants the output check covers."""
        raise NotImplementedError

    def expected_offers(self, tenant: str) -> list:
        raise NotImplementedError

    def check_reports(self, reports: Dict[str, dict]) -> List[str]:
        """Differential check of final reports against the reference backend."""
        found: List[str] = []
        for tenant, report in sorted(reports.items()):
            expected = reference_report(self.expected_offers(tenant))
            found += mismatches(report, expected, f"{tenant}.report")
        return found


def _ok(response, what: str) -> dict:
    if not response.ok:
        raise RuntimeError(f"{what} failed: HTTP {response.status} {response.payload}")
    return response.payload


async def ingest(client, tenant: str, events: list, chunk: int = 10_000) -> None:
    for start in range(0, len(events), chunk):
        _ok(await client.request(
            "POST", f"/sessions/{tenant}/requests",
            stream_payload(events[start:start + chunk], bulk=True)), f"ingest {tenant}")


async def evaluate(client, tenant: str) -> dict:
    payload = _ok(await client.request(
        "POST", f"/sessions/{tenant}/requests", EVALUATE), f"evaluate {tenant}")
    return payload["report"]


class SlidingWindow(Workload):
    """One tenant; each cycle: arrive ``batch``, retire ``batch``, evaluate."""

    tenant = "t0"
    window_size = 0
    batch = 0

    def pool_size(self) -> int:
        return self.window_size + 20 * self.batch

    async def populate(self, clients: list, workers: List[str]) -> None:
        client = clients[0]
        self.window = Window(self.pool_dicts, "o", 0)
        _ok(await client.create_session(
            self.tenant, self.session_config(workers)), f"create {self.tenant}")
        await ingest(client, self.tenant, self.window.arrivals(self.window_size))

    async def cycle(self, conn: int, send) -> None:
        path = f"/sessions/{self.tenant}/requests"
        size = self.window_size
        await send(conn, "arrive", path,
                   stream_payload(self.window.arrivals(self.batch), bulk=True),
                   stream_check(self.batch, size + self.batch))
        await send(conn, "retire", path,
                   stream_payload(self.window.retirements(self.batch), bulk=False),
                   stream_check(self.batch, size))
        await send(conn, "evaluate", path, EVALUATE, evaluate_check(size))

    async def final_reports(self, client) -> Dict[str, dict]:
        return {self.tenant: await evaluate(client, self.tenant)}

    def expected_offers(self, tenant: str) -> list:
        return self.window.offers()


class LiveEvaluate(SlidingWindow):
    name = "live-evaluate"

    def __init__(self, smoke: bool) -> None:
        self.window_size, self.batch = (600, 50) if smoke else (50_000, 500)


class DurableIngest(SlidingWindow):
    """Durable tenant: the checkpoint policy fires once per cycle, on the
    retirement request, because a cycle logs exactly ``checkpoint_events``
    WAL records."""

    name = "durable-ingest"
    durable = True

    def __init__(self, smoke: bool) -> None:
        self.window_size, self.batch = (600, 64) if smoke else (5_000, 512)

    def session_config(self, workers: List[str]) -> dict:
        return {"backend": "numpy", "persist_fsync": True,
                "checkpoint_events": 2 * self.batch}

    async def crash_tail(self, client) -> None:
        """Log a WAL tail, short of a checkpoint, that recovery must replay."""
        await ingest(client, self.tenant, self.window.arrivals(self.batch))


class RemoteChurn(SlidingWindow):
    name = "remote-churn"
    workers = 2

    def __init__(self, smoke: bool) -> None:
        self.window_size, self.batch = (600, 50) if smoke else (4_000, 200)

    def session_config(self, workers: List[str]) -> dict:
        return {"backend": "sharded", "shards": 2, "shard_executor": "remote",
                "shard_min_population": 256, "shard_retries": 2,
                "shard_hedge_ms": 0, "cluster": {"hosts": workers}}


class TenantMix(Workload):
    """Many small tenants visited round-robin by two connections.

    A visit sends evaluate, an earliest-start schedule, a trade, a live
    aggregate, then a small arrival and a retirement of as many offers.
    """

    name = "tenant-mix"
    connections = 2
    size = 32
    churn = 4

    def __init__(self, smoke: bool) -> None:
        self.tenants = [f"t{index}" for index in range(8 if smoke else 256)]
        #: Warm-up visits every tenant once.
        self.warmup_cycles = len(self.tenants) // self.connections
        #: Fixed sample of tenants whose reports the output check compares.
        self.sample = self.tenants[:: max(1, len(self.tenants) // 8)]

    def pool_size(self) -> int:
        return len(self.tenants) * self.size + 4096

    async def populate(self, clients: list, workers: List[str]) -> None:
        self.visits = [0] * self.connections
        self.windows = {
            tenant: Window(self.pool_dicts, tenant, index * self.size * 3)
            for index, tenant in enumerate(self.tenants)
        }

        async def fill(conn: int) -> None:
            for tenant in self.tenants[conn :: self.connections]:
                _ok(await clients[conn].create_session(
                    tenant, self.session_config(workers)), f"create {tenant}")
                await ingest(clients[conn], tenant,
                             self.windows[tenant].arrivals(self.size))

        await asyncio.gather(*(fill(conn) for conn in range(self.connections)))

    async def cycle(self, conn: int, send) -> None:
        mine = self.tenants[conn :: self.connections]
        tenant = mine[self.visits[conn] % len(mine)]
        self.visits[conn] += 1
        window = self.windows[tenant]
        path = f"/sessions/{tenant}/requests"
        await send(conn, "evaluate", path, EVALUATE, evaluate_check(self.size))
        await send(conn, "schedule", path, SCHEDULE, kind_check("schedule"))
        await send(conn, "trade", path, TRADE, kind_check("trade"))
        await send(conn, "aggregate", path, AGGREGATE, kind_check("aggregate"))
        await send(conn, "arrive", path,
                   stream_payload(window.arrivals(self.churn), bulk=True),
                   stream_check(self.churn, self.size + self.churn))
        await send(conn, "retire", path,
                   stream_payload(window.retirements(self.churn), bulk=False),
                   stream_check(self.churn, self.size))

    async def final_reports(self, client) -> Dict[str, dict]:
        return {tenant: await evaluate(client, tenant) for tenant in self.sample}

    def expected_offers(self, tenant: str) -> list:
        return self.windows[tenant].offers()


WORKLOADS = {
    workload.name: workload
    for workload in (LiveEvaluate, DurableIngest, RemoteChurn, TenantMix)
}
