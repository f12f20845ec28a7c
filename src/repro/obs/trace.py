"""Span-based per-request tracing, stdlib-only.

A :class:`Tracer` owns a bounded ring buffer of completed traces.  A trace
is started at the HTTP edge (:meth:`Tracer.start_trace`), which mints a
trace ID and installs the root span in a :mod:`contextvars` context;
instrumented code below the edge just wraps work in ``with span("name")``
and ends up parented correctly — including across thread hops, as long as
the dispatcher captures the context (``contextvars.copy_context().run``)
when handing work to an executor.  ``asyncio.create_task`` copies the
context automatically, so the coalescer's background pass inherits the
leading contributor's span for free.

When no trace is active, ``span(...)`` is a near-free no-op (one
ContextVar read), so instrumented inner layers cost nothing on untraced
paths such as the perf benchmark.  The same holds for
:func:`span_event`, the lightweight timestamped annotation (cache
spill/load, shard restart/retry, coalesce merge) that marks a moment
inside the current span without opening a child.

Every completed trace enters the ring and stays there until newer traces
push it out; the tracer's own registry (:attr:`Tracer.metrics`) reports
how full the ring is.

Spans live in memory only; :meth:`Tracer.export_chrome` converts a trace to
the Chrome trace-event JSON format (load via ``chrome://tracing`` or
https://ui.perfetto.dev) for offline inspection.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from .metrics import MetricsRegistry

__all__ = [
    "Span",
    "Trace",
    "Tracer",
    "span",
    "span_event",
    "current_trace_id",
    "current_span",
]


class Span:
    """One timed operation inside a trace."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attrs", "events", "_trace")

    def __init__(self, trace: "Trace", span_id: int, parent_id: Optional[int], name: str,
                 attrs: Dict[str, Any]):
        self._trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.events: List[Dict[str, Any]] = []
        self.start = time.perf_counter()
        self.end: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a timestamped annotation without opening a child span.

        Events are for moments, not durations: a cache spill, a shard
        worker restart, a coalesce merge.  Appends race-free under the
        trace lock because shard dispatch can finish sibling spans
        concurrently.
        """
        record = {
            "name": name,
            "at_s": time.perf_counter() - self._trace.origin,
            "attrs": dict(attrs),
        }
        with self._trace._lock:
            self.events.append(record)

    def finish(self) -> None:
        if self.end is None:
            self.end = time.perf_counter()
            self._trace._on_span_finished(self)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start - self._trace.origin,
            "duration_s": self.duration,
            "attrs": dict(self.attrs),
            "events": [dict(event) for event in self.events],
        }


class Trace:
    """A tree of spans sharing one trace ID.

    Span appends are lock-protected: shard dispatch runs spans from a
    thread pool, so siblings can finish concurrently.
    """

    def __init__(self, tracer: "Tracer", trace_id: str, name: str, route: Optional[str] = None):
        self.tracer = tracer
        self.trace_id = trace_id
        self.name = name
        #: The route label shown in the ring's summaries.
        self.route = route or name
        #: Set once the last span finishes and the trace enters the ring; a
        #: span that outlives the root (an abandoned pass) delays it.
        self.retained = False
        self.origin = time.perf_counter()
        self.wall_start = time.time()
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._open = 0
        self._root: Optional[Span] = None
        self._recorded = False

    def new_span(self, name: str, parent_id: Optional[int], attrs: Dict[str, Any]) -> Span:
        with self._lock:
            sp = Span(self, next(self._ids), parent_id, name, attrs)
            self.spans.append(sp)
            self._open += 1
            if self._root is None:
                self._root = sp
            return sp

    def _on_span_finished(self, sp: Span) -> None:
        with self._lock:
            self._open -= 1
            done = (
                self._open == 0
                and not self._recorded
                and self._root is not None
                and self._root.end is not None
            )
            if done:
                self._recorded = True
        if done:
            self.tracer._on_trace_finished(self)

    @property
    def root(self) -> Optional[Span]:
        return self._root

    def to_jsonable(self) -> Dict[str, Any]:
        with self._lock:
            spans = list(self.spans)
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "wall_start": self.wall_start,
            "duration_s": self._root.duration if self._root else None,
            "spans": [sp.to_jsonable() for sp in spans],
        }

    def summary(self) -> Dict[str, Any]:
        with self._lock:
            count = len(self.spans)
            events = sum(len(sp.events) for sp in self.spans)
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "route": self.route,
            "wall_start": self.wall_start,
            "duration_s": self._root.duration if self._root else None,
            "span_count": count,
            "event_count": events,
        }

    def to_chrome(self) -> Dict[str, Any]:
        """Chrome trace-event JSON (complete "X" events, µs timestamps)."""
        with self._lock:
            spans = list(self.spans)
        events = []
        for sp in spans:
            if sp.end is None:
                continue
            events.append({
                "name": sp.name,
                "ph": "X",
                "ts": (sp.start - self.origin) * 1e6,
                "dur": (sp.end - sp.start) * 1e6,
                "pid": 1,
                "tid": sp.parent_id if sp.parent_id is not None else 0,
                "args": {k: _jsonable(v) for k, v in sp.attrs.items()},
            })
            # Span events render as instant ("i") marks on the same row.
            for event in sp.events:
                events.append({
                    "name": event["name"],
                    "ph": "i",
                    "s": "t",
                    "ts": event["at_s"] * 1e6,
                    "pid": 1,
                    "tid": sp.parent_id if sp.parent_id is not None else 0,
                    "args": {k: _jsonable(v) for k, v in event["attrs"].items()},
                })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"trace_id": self.trace_id, "name": self.name}}


def _jsonable(value: Any) -> Any:
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


# The active span for the current logical context.  Holds the Span object;
# the owning Trace is reachable through it.
_current_span: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def current_span() -> Optional[Span]:
    return _current_span.get()


def current_trace_id() -> Optional[str]:
    sp = _current_span.get()
    return None if sp is None else sp._trace.trace_id


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Optional[Span]]:
    """Open a child span under the current one; no-op when untraced."""
    parent = _current_span.get()
    if parent is None:
        yield None
        return
    sp = parent._trace.new_span(name, parent.span_id, attrs)
    token = _current_span.set(sp)
    try:
        yield sp
    finally:
        _current_span.reset(token)
        sp.finish()


def span_event(name: str, **attrs: Any) -> None:
    """Annotate the current span with a timestamped event; no-op untraced."""
    sp = _current_span.get()
    if sp is not None:
        sp.event(name, **attrs)


class Tracer:
    """Mints traces and keeps the ``capacity`` most recent completed ones."""

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self._completed: "deque[Trace]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._started = 0
        self.metrics = MetricsRegistry()
        self._ring_occupancy = self.metrics.gauge(
            "repro_trace_ring_occupancy",
            "Completed traces currently retained in the tracer ring buffer",
        )

    @contextmanager
    def start_trace(self, name: str, route: Optional[str] = None, **attrs: Any) -> Iterator[Trace]:
        """Begin a trace with a fresh root span installed in the context.

        ``route`` labels the trace's summary (defaults to ``name``).
        """
        trace = Trace(self, uuid.uuid4().hex[:16], name, route=route)
        with self._lock:
            self._started += 1
        root = trace.new_span(name, None, attrs)
        token = _current_span.set(root)
        try:
            yield trace
        finally:
            _current_span.reset(token)
            root.finish()

    def _on_trace_finished(self, trace: Trace) -> None:
        with self._lock:
            self._completed.append(trace)
            trace.retained = True
            occupancy = len(self._completed)
        self._ring_occupancy.set(occupancy)

    # ----------------------------------------------------------------- query
    def completed(self) -> List[Trace]:
        with self._lock:
            return list(self._completed)

    def get(self, trace_id: str) -> Optional[Trace]:
        with self._lock:
            for trace in self._completed:
                if trace.trace_id == trace_id:
                    return trace
        return None

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "started": self._started,
                "retained": len(self._completed),
                "capacity": self.capacity,
            }

    def summaries(self) -> List[Dict[str, Any]]:
        return [trace.summary() for trace in reversed(self.completed())]
