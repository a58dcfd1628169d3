"""Span tracing for the benchmark's gateway process, and its accounting.

:func:`install` wraps the library callables the benchmark attributes time
to, at the place the gateway reaches them (a module global, a class
attribute), so the program itself carries no instrumentation.  Each
wrapper records one span ``(id, parent, request, name, start_ns, end_ns)``
with ``time.perf_counter_ns`` while tracing is switched on, and is a
single flag test while it is off.  Spans stay in memory until
:meth:`Tracer.dump` writes them out.

:func:`attribute` turns the spans of one traced phase into self times:
every instant of a root span (``server.handle`` or the response encode
that follows it) belongs to the deepest span active at that instant, so
the per-name totals add up to the roots' duration.  Parallel children of
one parent (shard dispatches in flight together) share their overlap
equally instead of being counted twice.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Span id of the innermost open span in this context (``None`` = none).
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
#: Id of the gateway request this context serves.
_REQUEST: contextvars.ContextVar = contextvars.ContextVar("request", default=None)
#: Kind of the service request being served (``EvaluateRequest``, ...).
_KIND: contextvars.ContextVar = contextvars.ContextVar("kind", default=None)

#: Span names whose spans may be roots of a request's tree.
ROOT_NAMES = ("server.handle", "io.encode")

Span = Tuple[int, Optional[int], Optional[int], str, int, int]


class Tracer:
    """In-memory span and counter store, switched on and off at run time."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self.executors: list = []
        self._executor_base: Dict[str, int] = {}
        self.executor_delta: Dict[str, int] = defaultdict(int)

    def switch(self, on: bool) -> None:
        """Turn recording on or off; executor counters accrue only while on."""
        if on == self.enabled:
            return
        if on:
            self._executor_base = self._executor_totals()
        else:
            for key, value in self._executor_totals().items():
                self.executor_delta[key] += value - self._executor_base.get(key, 0)
        self.enabled = on

    def _executor_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for executor in self.executors:
            for key, value in executor.stats().items():
                if isinstance(value, int):
                    totals[key] += value
        return totals

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter, keyed by the service request kind in flight."""
        key = f"{name}@{_KIND.get()}"
        with self._lock:  # gateway worker threads count concurrently
            self.counters[key] += amount

    def begin(self) -> Tuple[int, Optional[int], contextvars.Token, int]:
        span_id = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        return span_id, parent, token, time.perf_counter_ns()

    def end(self, name: str, opened) -> None:
        span_id, parent, token, started = opened
        ended = time.perf_counter_ns()
        _CURRENT.reset(token)
        self.spans.append((span_id, parent, _REQUEST.get(), name, started, ended))

    def new_request(self) -> None:
        """Tag this context (and what it awaits next) with a fresh request id."""
        _REQUEST.set(next(self._requests))

    def dump(self, path: str) -> None:
        """Write the spans and counters recorded so far, then forget them."""
        payload = {
            "spans": self.spans,
            "counters": dict(self.counters),
            "executor": dict(self.executor_delta),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        self.spans = []
        self.counters = defaultdict(int)
        self.executor_delta = defaultdict(int)


#: The one tracer of the gateway process: the wrappers are installed on
#: library classes, so they are process-wide too.
TRACER = Tracer()


def _sync(name: str, function: Callable, counter: Optional[str] = None,
          amount: Optional[Callable] = None) -> Callable:
    """A span-recording wrapper; ``counter`` also counts calls (or ``amount``)."""
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not TRACER.enabled:
            return function(*args, **kwargs)
        if counter is not None:
            TRACER.count(counter, amount(*args) if amount else 1)
        opened = TRACER.begin()
        try:
            return function(*args, **kwargs)
        finally:
            TRACER.end(name, opened)

    return wrapper


def _patch(owner, attribute: str, name: str, **counting) -> None:
    """Replace ``owner.attribute`` with a span-recording wrapper."""
    raw = owner.__dict__.get(attribute) if isinstance(owner, type) else None
    if isinstance(raw, staticmethod):
        setattr(owner, attribute, staticmethod(_sync(name, raw.__func__, **counting)))
    else:
        setattr(owner, attribute, _sync(name, getattr(owner, attribute), **counting))


class _TimedEntry:
    """An async context manager whose ``__aenter__`` is one span."""

    def __init__(self, inner, name: str) -> None:
        self._inner = inner
        self._name = name

    async def __aenter__(self):
        opened = TRACER.begin()
        try:
            return await self._inner.__aenter__()
        finally:
            TRACER.end(self._name, opened)

    async def __aexit__(self, *exc_info):
        return await self._inner.__aexit__(*exc_info)


def _patch_admit(gate_class) -> None:
    admit = gate_class.admit

    @functools.wraps(admit)
    def traced_admit(self, *args, **kwargs):
        inner = admit(self, *args, **kwargs)
        return _TimedEntry(inner, "server.gate_wait") if TRACER.enabled else inner

    gate_class.admit = traced_admit


def install() -> None:
    """Wrap the layer entry points of the running gateway process.

    Must run before the gateway is constructed: the worker-thread pool is
    replaced by one that carries the caller's context into the thread, so
    spans opened inside ``FlexSession.submit`` keep their parent.
    """
    from concurrent.futures import ThreadPoolExecutor

    import repro.server.app as app
    import repro.service.session as session
    from repro.backend.cache import MatrixCache
    from repro.cluster import executor as cluster_executor
    from repro.cluster import framing
    from repro.core.flexoffer import FlexOffer
    from repro.market.trading import TradingSession
    from repro.measures.base import FlexibilityMeasure, registered_measures
    from repro.persist.persister import SessionPersister
    from repro.server.limits import ConcurrencyGate, SessionGate
    from repro.stream.engine import StreamingEngine

    class ContextThreadPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            context = contextvars.copy_context()
            return super().submit(context.run, fn, *args, **kwargs)

    app.ThreadPoolExecutor = ContextThreadPool

    handle = app.Gateway.handle

    @functools.wraps(handle)
    async def traced_handle(self, method, path, body=b""):
        if not TRACER.enabled:
            return await handle(self, method, path, body)
        TRACER.new_request()
        TRACER.count("io.bytes_in", len(body))
        opened = TRACER.begin()
        try:
            response = await handle(self, method, path, body)
        finally:
            TRACER.end("server.handle", opened)
        if response.status == 429 or response.status >= 500:
            TRACER.count("server.rejected")
        return response

    app.Gateway.handle = traced_handle

    encode = app.Response.encode

    @functools.wraps(encode)
    def traced_encode(self, *args, **kwargs):
        if not TRACER.enabled:
            return encode(self, *args, **kwargs)
        opened = TRACER.begin()
        try:
            data = encode(self, *args, **kwargs)
        finally:
            TRACER.end("io.encode", opened)
        TRACER.count("io.bytes_out", len(data))
        return data

    app.Response.encode = traced_encode

    _patch_admit(ConcurrencyGate)
    _patch_admit(SessionGate)
    _patch(app.Gateway, "_parse_json", "io.decode")
    app.request_from_dict = _sync("io.decode", app.request_from_dict)
    app.result_to_dict = _sync("io.encode", app.result_to_dict)

    submit = session.FlexSession.submit

    @functools.wraps(submit)
    def traced_submit(self, request):
        if not TRACER.enabled:
            return submit(self, request)
        _KIND.set(type(request).__name__)
        opened = TRACER.begin()
        try:
            return submit(self, request)
        finally:
            TRACER.end("service.submit", opened)

    session.FlexSession.submit = traced_submit

    _patch(StreamingEngine, "bulk_arrive", "stream.bulk_arrive", counter="stream.events",
           amount=lambda _engine, events, *rest: len(events))
    _patch(StreamingEngine, "apply", "stream.apply", counter="stream.events")
    _patch(StreamingEngine, "live_offers", "stream.live_offers")
    _patch(StreamingEngine, "live_matrix", "stream.live_matrix")
    _patch(StreamingEngine, "aggregates", "aggregation.aggregates")

    session.evaluate_set = _sync("backend.evaluate_set", session.evaluate_set)
    _patch(MatrixCache, "key_of", "backend.cache_key")
    fingerprint = FlexOffer.__dict__["fingerprint"]

    def counted_fingerprint(self):
        if TRACER.enabled:
            TRACER.count("backend.fingerprint_calls")
        return fingerprint.fget(self)

    FlexOffer.fingerprint = property(counted_fingerprint, doc=fingerprint.__doc__)

    for measure_class in {FlexibilityMeasure, *registered_measures().values()}:
        if "batch_values" in measure_class.__dict__:
            _patch(measure_class, "batch_values", "measures.batch_values")

    _patch(SessionPersister, "log_event", "persist.log_event", counter="persist.wal_records")
    _patch(SessionPersister, "commit", "persist.commit")
    _patch(SessionPersister, "checkpoint", "persist.checkpoint", counter="persist.checkpoints")
    _patch(SessionPersister, "recover", "persist.recover")

    for scheduler_class, _seeded, _objective in session._SCHEDULERS.values():
        _patch(scheduler_class, "schedule", "scheduling.schedule")
    _patch(TradingSession, "clear", "market.clear")

    remote = cluster_executor.RemoteShardExecutor
    remote_init = remote.__init__
    remote_submit = remote.submit

    @functools.wraps(remote_init)
    def registered_init(self, *args, **kwargs):
        remote_init(self, *args, **kwargs)
        TRACER.executors.append(self)

    @functools.wraps(remote_submit)
    def traced_remote_submit(self, fn, *args, **kwargs):
        if not TRACER.enabled:
            return remote_submit(self, fn, *args, **kwargs)
        opened = TRACER.begin()
        _CURRENT.reset(opened[2])  # the dispatch runs on, not under, the caller
        future = remote_submit(self, fn, *args, **kwargs)
        request = _REQUEST.get()

        def finished(_future) -> None:
            TRACER.spans.append(
                (opened[0], opened[1], request, "cluster.dispatch",
                 opened[3], time.perf_counter_ns())
            )

        future.add_done_callback(finished)
        return future

    remote.__init__ = registered_init
    remote.submit = traced_remote_submit

    send_frame = cluster_executor.send_frame
    recv_exact = framing._recv_exact

    @functools.wraps(send_frame)
    def counted_send_frame(*args, **kwargs):
        sent = send_frame(*args, **kwargs)
        if TRACER.enabled:
            TRACER.count("cluster.bytes_sent", sent + 8)
        return sent

    @functools.wraps(recv_exact)
    def counted_recv_exact(*args, **kwargs):
        data = recv_exact(*args, **kwargs)
        if TRACER.enabled and data is not None:
            TRACER.count("cluster.bytes_recv", len(data))
        return data

    cluster_executor.send_frame = counted_send_frame
    framing._recv_exact = counted_recv_exact


# ---------------------------------------------------------------------- #
# Accounting
# ---------------------------------------------------------------------- #
def attribute(spans: Iterable[Span]) -> dict:
    """Self time per span name, and the structural checks of the trace.

    Returns ``{"self_ns": {name: ns}, "count": {name: n}, "root_ns": ns,
    "roots": {name: n}, "orphans": n, "escaped_ns": ns}``.  A span whose
    parent was never recorded, or a root that is not a request root, is
    an orphan: its time is attributed nowhere, and the caller fails the
    accounting check on it.  ``escaped_ns`` is child time lying outside
    its parent's interval (clipped away).
    """
    spans = list(spans)
    by_id = {span[0]: span for span in spans}
    children: Dict[int, list] = defaultdict(list)
    roots = []
    orphans = 0
    count: Dict[str, int] = defaultdict(int)
    for span in spans:
        count[span[3]] += 1
        parent = span[1]
        if parent is None:
            if span[3] in ROOT_NAMES:
                roots.append(span)
            else:
                orphans += 1
        elif parent in by_id:
            children[parent].append(span)
        else:
            orphans += 1
    self_ns: Dict[str, float] = defaultdict(float)
    root_ns = 0
    escaped = 0
    root_count: Dict[str, int] = defaultdict(int)
    for root in roots:
        root_count[root[3]] += 1
        root_ns += root[5] - root[4]
        intervals = []  # (start, end, depth, name)
        stack = [(root, 0, root[4], root[5])]
        while stack:
            span, depth, low, high = stack.pop()
            start, end = max(span[4], low), min(span[5], high)
            escaped += (span[5] - span[4]) - max(0, end - start)
            if end <= start:
                continue
            intervals.append((start, end, depth, span[3]))
            for child in children.get(span[0], ()):
                stack.append((child, depth + 1, start, end))
        _sweep(intervals, self_ns)
    return {
        "self_ns": dict(self_ns),
        "count": dict(count),
        "root_ns": root_ns,
        "roots": dict(root_count),
        "orphans": orphans,
        "escaped_ns": escaped,
    }


def _sweep(intervals: list, totals: Dict[str, float]) -> None:
    """Credit each instant to the deepest interval(s) covering it."""
    events = []
    for start, end, depth, name in intervals:
        events.append((start, 1, depth, name))
        events.append((end, -1, depth, name))
    events.sort(key=lambda event: (event[0], event[1]))
    active: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    previous = None
    for moment, step, depth, name in events:
        if previous is not None and moment > previous and active:
            names = active[max(active)]
            width = sum(names.values())
            for active_name, number in names.items():
                totals[active_name] += (moment - previous) * number / width
        previous = moment
        level = active[depth]
        level[name] += step
        if level[name] == 0:
            del level[name]
            if not level:
                del active[depth]
