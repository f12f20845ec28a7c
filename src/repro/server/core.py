"""Transport-agnostic request handling for the HTTP front-end.

:class:`ServerCore` owns everything the network layer should not care
about: routing, request coalescing, admission control, background index
builds, streaming sessions, and the per-core metrics registry that both
``/stats`` and ``/metrics`` read.  The HTTP codec
(:mod:`repro.server.transport`) frames each request and drives the
``await core.handle(method, path, body)`` coroutine; socket mechanics never
change an answer.

Concurrency model
-----------------
The service behind the core advertises how many calls it can usefully run
at once through a ``concurrency`` attribute.  A plain
:class:`~repro.service.serving.QueryService` (single-threaded, like the
:class:`~repro.service.cache.IndexCache` behind it) has none and defaults
to 1: all service work funnels through one worker thread guarded by an
``asyncio.Semaphore(1)`` — exactly the historical lock discipline.  A
:class:`~repro.service.sharding.ShardRouter` advertises its shard count:
the semaphore and the executor both widen to N, so N vectorised passes
(bound for different shards) overlap while the event loop stays free.
Streaming sessions remain single-threaded objects regardless, so each
session additionally holds a private per-session lock.

The semaphore is what makes **coalescing** profitable: while the service
slots are busy, every new request against the same
``(target, kind, strict)`` group key joins the pending
:class:`_PendingPass` instead of queueing its own.  When a slot frees,
the pass *seals* (pops itself from the pending map — failures can never
poison the map for later requests) and answers all contributors in one
vectorised :meth:`QueryService.submit` call.  Outcomes are demuxed back to
contributors by position slice, because ``submit`` preserves input order.

**Admission control** counts in-flight *service requests* (not HTTP
calls): a batch whose size would push the count past ``max_inflight`` is
rejected whole with ``429`` and a ``Retry-After`` header, never silently
dropped.  Background index builds are bounded separately by
``build_queue_limit``.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.serialize import to_jsonable
from ..obs.metrics import (
    MetricsRegistry,
    exemplars_from_snapshot,
    gauge_fragment,
    get_registry,
    merge_snapshots,
    render_prometheus,
    snapshot_timing,
    snapshot_value,
)
from ..obs.trace import Tracer, current_trace_id, span, span_event
from ..resilience.deadline import (
    Deadline,
    DeadlineExceeded,
    current_deadline,
    deadline_scope,
    note_expiry,
)
from ..service import (
    INDEX_KINDS,
    QueryRequest,
    QueryService,
    ServiceRequestError,
    TargetSpec,
    parse_requests_lenient,
    parse_target,
)
from ..streaming import StreamingLCS, StreamingLIS

__all__ = [
    "BATCH_SCHEMA_ID",
    "STATS_SCHEMA_ID",
    "ServerCore",
]

BATCH_SCHEMA_ID = "repro.server.batch"
STATS_SCHEMA_ID = "repro.server.stats"
STATS_SCHEMA_VERSION = 8
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _swallow_future_error(future: "asyncio.Future") -> None:
    """Mark an abandoned pass future's exception as retrieved.

    When every contributor's deadline expires before the pass finishes,
    nobody is left to await the future — without this callback asyncio
    logs a spurious "exception was never retrieved" at teardown.
    """
    if not future.cancelled():
        future.exception()


class _HttpError(Exception):
    """Abort a request with a structured JSON error response."""

    def __init__(self, status: int, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.status = int(status)
        self.message = message
        self.retry_after = retry_after


class _JsonResponse:
    """A routed payload that carries its own HTTP status (e.g. a 504 batch).

    Unlike :class:`_HttpError` this is not an abort: the payload is a full,
    well-formed response document — only the status line differs from 200.
    """

    __slots__ = ("status", "payload")

    def __init__(self, status: int, payload: Any) -> None:
        self.status = int(status)
        self.payload = payload


class _PendingPass:
    """One in-flight vectorised pass that concurrent requests may join.

    Contributors append their requests while the pass waits for the service
    lock; ``add`` returns each contributor's start offset so the merged
    outcome list can be sliced back apart (``QueryService.submit`` preserves
    input positions).
    """

    __slots__ = ("key", "requests", "contributions", "sealed", "created", "future")

    def __init__(self, key, loop: asyncio.AbstractEventLoop) -> None:
        self.key = key
        self.requests: List[QueryRequest] = []
        self.contributions = 0
        self.sealed = False
        self.created = time.perf_counter()
        self.future: asyncio.Future = loop.create_future()

    def add(self, requests: Sequence[QueryRequest]) -> int:
        offset = len(self.requests)
        self.requests.extend(requests)
        self.contributions += 1
        return offset


class ServerCore:
    """Routing, coalescing, backpressure and stats for the HTTP front-end.

    Every count and timing the core keeps lives in :attr:`metrics`, a
    private :class:`~repro.obs.metrics.MetricsRegistry`: :meth:`stats` is a
    view over the merged :meth:`metrics_snapshot`, the same snapshot
    ``/metrics`` renders, so the two surfaces cannot disagree.  Only control
    state (``inflight``, the pending-pass map, builds and sessions) stays in
    plain attributes.
    """

    def __init__(
        self,
        service: Optional[Any] = None,
        *,
        max_inflight: int = 64,
        build_queue_limit: int = 8,
        retry_after_seconds: float = 1.0,
        default_seed: Optional[int] = None,
        trace_capacity: int = 128,
        default_deadline_ms: Optional[float] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        if build_queue_limit < 1:
            raise ValueError(f"build_queue_limit must be positive, got {build_queue_limit}")
        if default_deadline_ms is not None:
            Deadline.after_ms(default_deadline_ms)  # the edge's budget check
        self.service = service if service is not None else QueryService()
        # Shard routers advertise how many calls may run at once; plain
        # services default to 1 and keep the historical strict serialisation.
        self.service_concurrency = max(1, int(getattr(self.service, "concurrency", 1) or 1))
        self.max_inflight = int(max_inflight)
        self.build_queue_limit = int(build_queue_limit)
        self.retry_after_seconds = float(retry_after_seconds)
        self.default_seed = default_seed

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._service_lock: Optional[asyncio.Semaphore] = None
        self._session_locks: Dict[str, asyncio.Lock] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._pending: Dict[Tuple[TargetSpec, str, bool], _PendingPass] = {}
        self._builds: Dict[str, Dict[str, Any]] = {}
        self._build_counter = itertools.count(1)
        self._sessions: Dict[str, Any] = {}
        #: Each session's state document as of its last mutation, computed
        #: on the service thread; GETs return it without touching the session.
        self._session_states: Dict[str, Dict[str, Any]] = {}
        self._session_counter = itertools.count(1)
        self._tasks: set = set()
        self._started = time.perf_counter()
        #: Per-request traces, minted at the HTTP edge for batch POSTs;
        #: every completed trace enters the bounded ring buffer behind
        #: ``GET /debug/traces``.
        self.tracer = Tracer(capacity=trace_capacity)
        #: Deadline budget applied to every ``POST /v2/batch`` that does
        #: not carry its own ``X-Repro-Deadline-Ms`` header.  ``None`` keeps
        #: the historical unbounded behaviour.
        self.default_deadline_ms = default_deadline_ms

        self.inflight = 0
        self.peak_inflight = 0
        #: This core's counts and timings (see the class docstring).  Per
        #: instance: the latency experiments build one server per grid point
        #: in one process and read each one's counts.
        self.metrics = MetricsRegistry()
        counter, histogram = self.metrics.counter, self.metrics.histogram
        self._http_requests = counter(
            "repro_http_requests_total", "HTTP requests by method, route and status",
            ("method", "route", "status"),
        )
        self._http_seconds = histogram(
            "repro_http_request_seconds", "End-to-end HTTP request handling time", ("route",)
        )
        self._received = counter("repro_server_requests_received_total", "Batch requests received")
        self._outcomes = counter(
            "repro_server_requests_total", "Batch requests answered or failed", ("outcome",)
        )
        self._parse_errors = counter(
            "repro_server_parse_errors_total", "Batch requests that failed to parse"
        )
        self._rejections = counter(
            "repro_server_rejections_total", "Requests rejected by admission control", ("reason",)
        )
        self._deadline_expired = counter(
            "repro_server_deadline_expired_total", "Batch requests whose deadline expired"
        )
        self._queue_wait = histogram(
            "repro_server_queue_wait_seconds", "Time a batch request spent before its pass started"
        )
        self._answer_seconds = histogram(
            "repro_server_answer_seconds", "Vectorised pass time attributed to batch requests"
        )
        self._build_wait = histogram(
            "repro_server_build_wait_seconds", "Time a background build waited for the service"
        )
        self._passes = counter(
            "repro_server_passes_total", "Vectorised passes run by the coalescer"
        )
        self._merged_passes = counter(
            "repro_server_merged_passes_total", "Passes that served more than one contributor"
        )
        self._failed_passes = counter("repro_server_failed_passes_total", "Passes that raised")
        self._coalesced = counter(
            "repro_server_coalesced_requests_total", "Requests that joined an in-flight pass"
        )
        self._builds_total = counter(
            "repro_server_builds_total", "Background builds started, done or failed", ("event",)
        )
        self._internal_errors = counter(
            "repro_server_internal_errors_total", "500 answers"
        )

    # ---------------------------------------------------------------- lifecycle
    async def startup(self) -> None:
        """Bind to the running event loop (call once, from that loop)."""
        self._loop = asyncio.get_running_loop()
        # Semaphore width == how many service calls run at once.  Width 1
        # (plain QueryService) is the historical lock discipline; a shard
        # router widens it to its shard count so per-shard passes overlap.
        self._service_lock = asyncio.Semaphore(self.service_concurrency)
        self._executor = ThreadPoolExecutor(
            max_workers=self.service_concurrency, thread_name_prefix="repro-service"
        )

    async def shutdown(self) -> None:
        for task in list(self._tasks):
            task.cancel()
        close = getattr(self.service, "close", None)
        if callable(close) and self._executor is not None:
            # Shard routers own worker processes; tear them down off-loop
            # while the executor is still alive.
            await self._loop.run_in_executor(self._executor, close)
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def _spawn(self, coro: Awaitable[Any]) -> None:
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _in_service_thread(self, fn, *args, **kwargs):
        """Run ``fn`` on the single service thread (never on the event loop).

        Executor threads do not inherit the caller's contextvars, so each
        call ships a fresh context copy — service-layer spans stay parented
        to the request that triggered them.
        """
        ctx = contextvars.copy_context()
        return await self._loop.run_in_executor(
            self._executor, ctx.run, functools.partial(fn, *args, **kwargs)
        )

    # ------------------------------------------------------------------ routing
    def _edge_deadline(
        self, headers: Optional[Dict[str, str]]
    ) -> Optional[Deadline]:
        """The batch deadline: ``X-Repro-Deadline-Ms`` header, else default."""
        raw = None
        if headers:
            for key, value in headers.items():
                if key.lower() == "x-repro-deadline-ms":
                    raw = value
                    break
        if raw is None:
            if self.default_deadline_ms is None:
                return None
            return Deadline.after_ms(self.default_deadline_ms)
        try:
            return Deadline.after_ms(raw)
        except (TypeError, ValueError):
            raise _HttpError(
                400,
                f"X-Repro-Deadline-Ms must be a positive, finite number of "
                f"milliseconds, got {raw!r}",
            ) from None

    async def handle(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Answer one HTTP request: ``(status, extra_headers, payload)``.

        The payload is JSON unless the handler set its own ``Content-Type``
        in the extra headers (``/metrics`` returns Prometheus text).
        ``headers`` carries the request headers the core reads
        (``X-Repro-Deadline-Ms``); ``None`` means "no budget header", so
        direct callers need not pass it.
        """
        started = time.perf_counter()
        path, _, raw_query = path.partition("?")
        path = path.rstrip("/") or "/"
        method = method.upper()
        query = urllib.parse.parse_qs(raw_query) if raw_query else {}
        route = self._route_label(method, path)
        exemplar = None
        if method == "POST" and path == "/v2/batch":
            try:
                deadline = self._edge_deadline(headers)
            except _HttpError as exc:
                status, headers_out, payload = (
                    exc.status,
                    {},
                    self._encode({"error": exc.message, "status": exc.status}),
                )
            else:
                # Every batch is traced.  The deadline scope wraps the
                # trace so every span below can read the remaining budget.
                with deadline_scope(deadline):
                    with self.tracer.start_trace(
                        "edge", route=route, method=method, path=path
                    ) as trace:
                        status, headers_out, payload = await self._handle_routed(
                            method, path, query, body
                        )
                # The root span finished when the with-block exited; the
                # trace is in the ring unless a span below outlives it (an
                # abandoned pass), and an exemplar must resolve via
                # /debug/traces/<id>.
                if trace.retained:
                    exemplar = trace.trace_id
        else:
            status, headers_out, payload = await self._handle_routed(
                method, path, query, body
            )
        self._http_requests.inc(method=method, route=route, status=status)
        self._http_seconds.observe(time.perf_counter() - started, route=route, exemplar=exemplar)
        return status, headers_out, payload

    async def _handle_routed(
        self, method: str, path: str, query: Dict[str, List[str]], body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        try:
            payload = await self._route(method, path, query, body)
            if isinstance(payload, tuple):  # (extra_headers, raw_bytes) — /metrics
                return 200, payload[0], payload[1]
            if isinstance(payload, _JsonResponse):  # e.g. a whole-batch 504
                return payload.status, {}, self._encode(payload.payload)
            return 200, {}, self._encode(payload)
        except _HttpError as exc:
            headers = {}
            if exc.retry_after is not None:
                headers["Retry-After"] = str(max(1, int(np.ceil(exc.retry_after))))
            return exc.status, headers, self._encode(
                {"error": exc.message, "status": exc.status}
            )
        except ServiceRequestError as exc:
            return 400, {}, self._encode({"error": str(exc), "status": 400})
        except Exception as exc:  # noqa: BLE001 — the server must stay up
            self._internal_errors.inc()
            return 500, {}, self._encode(
                {"error": f"internal error: {type(exc).__name__}: {exc}", "status": 500}
            )

    @staticmethod
    def _route_label(method: str, path: str) -> str:
        """Collapse parameterised paths so metric labels stay low-cardinality."""
        if path.startswith("/builds/"):
            return "/builds/{token}"
        if path.startswith("/sessions/"):
            return "/sessions/{id}/push" if path.endswith("/push") else "/sessions/{id}"
        if path.startswith("/debug/traces/"):
            return "/debug/traces/{id}"
        known = {
            "/", "/healthz", "/stats", "/metrics", "/v2/batch",
            "/builds", "/sessions", "/debug/traces", "/debug/exemplars",
        }
        return path if path in known else "(unknown)"

    async def _route(
        self, method: str, path: str, query: Dict[str, List[str]], body: bytes
    ) -> Any:
        if method == "GET":
            if path in ("/", "/healthz"):
                from .. import __version__

                return {
                    "status": "ok",
                    "version": __version__,
                    "uptime_seconds": time.perf_counter() - self._started,
                }
            if path == "/stats":
                return self.stats()
            if path == "/metrics":
                text = self.metrics_text()
                return {"Content-Type": METRICS_CONTENT_TYPE}, text.encode("utf-8")
            if path == "/debug/traces":
                return {
                    "schema": "repro.server.traces",
                    "version": 1,
                    **self.tracer.stats(),
                    "traces": self.tracer.summaries(),
                }
            if path.startswith("/debug/traces/"):
                return self._get_trace(path[len("/debug/traces/"):], query)
            if path == "/debug/exemplars":
                return self._get_exemplars()
            if path == "/builds":
                return {"builds": [dict(rec) for rec in self._builds.values()]}
            if path.startswith("/builds/"):
                return self._get_build(path[len("/builds/"):])
            if path == "/sessions":
                return {"sessions": [dict(state) for state in self._session_states.values()]}
            if path.startswith("/sessions/"):
                return dict(self._known_session(self._session_id(path))[1])
            raise _HttpError(404, f"no route for GET {path}")
        if method == "POST":
            document = self._decode(body)
            if path == "/v2/batch":
                return await self._post_batch(document)
            if path == "/builds":
                return await self._post_build(document)
            if path == "/sessions":
                return await self._post_session(document)
            if path.startswith("/sessions/") and path.endswith("/push"):
                sid = self._session_id(path[: -len("/push")])
                return await self._push_session(sid, document)
            raise _HttpError(404, f"no route for POST {path}")
        if method == "DELETE":
            if path.startswith("/sessions/"):
                return await self._delete_session(self._session_id(path))
            raise _HttpError(404, f"no route for DELETE {path}")
        raise _HttpError(405, f"method {method} not allowed")

    # ----------------------------------------------------------------- metrics
    def metrics_snapshot(
        self, service_snapshots: Optional[List[Dict[str, Any]]] = None
    ) -> Dict[str, Any]:
        """The merged metrics snapshot every observability surface reads.

        Merges the process-global registry (multiply engine, arena, fault
        and deadline counters), this core's and its tracer's registries,
        the service's :meth:`metric_snapshots` (a plain service's and its
        cache's registries, or a shard router's registry plus one
        shard-stamped snapshot per shard, shipped over the router pipes;
        ``service_snapshots`` when the caller already read them), and
        point-in-time fragments (uptime, build info).  ``/metrics``,
        ``/debug/exemplars`` and ``/stats`` all derive from this one
        snapshot.
        """
        from .. import __version__

        if service_snapshots is None:
            service_snapshots = self.service.metric_snapshots()
        return merge_snapshots(
            get_registry().snapshot(),
            self.metrics.snapshot(),
            self.tracer.metrics.snapshot(),
            *service_snapshots,
            gauge_fragment(
                "repro_server_uptime_seconds",
                time.perf_counter() - self._started,
                "Seconds since this server core started",
            ),
            gauge_fragment(
                "repro_build_info",
                1,
                "Constant 1; the label carries the version",
                labels={"version": __version__},
            ),
        )

    def metrics_text(self) -> str:
        """The merged Prometheus exposition for ``GET /metrics``."""
        return render_prometheus(self.metrics_snapshot())

    def _get_exemplars(self) -> Dict[str, Any]:
        """``GET /debug/exemplars``: bucket exemplars resolved against the ring.

        ``retained`` says whether the linked trace is still in the ring
        buffer — an exemplar can outlive its trace once the ring wraps.
        """
        records = exemplars_from_snapshot(self.metrics_snapshot())
        for record in records:
            record["retained"] = self.tracer.get(record["trace_id"]) is not None
        return {
            "schema": "repro.server.exemplars",
            "version": 1,
            "count": len(records),
            "exemplars": records,
        }

    def _get_trace(self, trace_id: str, query: Dict[str, List[str]]) -> Any:
        trace = self.tracer.get(trace_id)
        if trace is None:
            raise _HttpError(404, f"unknown (or evicted) trace {trace_id!r}")
        if query.get("format", [""])[0] == "chrome":
            # Served as a download: a stable filename keyed by the trace ID
            # so "save for chrome://tracing" lands somewhere predictable.
            headers = {
                "Content-Disposition": (
                    f'attachment; filename="repro-trace-{trace.trace_id}.chrome.json"'
                )
            }
            return headers, self._encode(trace.to_chrome())
        return trace.to_jsonable()

    @staticmethod
    def _encode(payload: Any) -> bytes:
        return json.dumps(to_jsonable(payload)).encode("utf-8")

    @staticmethod
    def _decode(body: bytes) -> Any:
        if not body:
            raise _HttpError(400, "request body must be a JSON object")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from None

    # ------------------------------------------------------------------- batch
    async def _post_batch(self, document: Any) -> Any:
        """Deadline plumbing around :meth:`_post_batch_inner`.

        A document-level ``deadline_ms`` can only *tighten* the budget the
        edge already installed from the header / server default — a client
        cannot talk itself into more time than the operator allowed.
        """
        doc_deadline: Optional[Deadline] = None
        budget_ms = document.get("deadline_ms") if isinstance(document, dict) else None
        if budget_ms is not None:
            ambient = current_deadline()
            try:
                doc_deadline = (
                    ambient.tighten_ms(budget_ms)
                    if ambient is not None
                    else Deadline.after_ms(budget_ms)
                )
            except (TypeError, ValueError):
                raise _HttpError(
                    400,
                    f"deadline_ms must be a positive, finite number of "
                    f"milliseconds, got {budget_ms!r}",
                ) from None
        with deadline_scope(doc_deadline):
            return await self._post_batch_inner(document)

    async def _post_batch_inner(self, document: Any) -> Any:
        received = time.perf_counter()
        defaults, parsed, errors = parse_requests_lenient(
            document, default_seed=self.default_seed
        )
        total = len(parsed) + len(errors)
        self._received.inc(total)
        if errors:
            self._parse_errors.inc(len(errors))

        slots: List[Optional[Dict[str, Any]]] = [None] * total
        for err in errors:
            slots[err["index"]] = {
                "id": err["id"],
                "status": "error",
                "error": err["error"],
            }

        if parsed:
            n = len(parsed)
            if n > self.max_inflight:
                self._rejections.inc(total, reason="batch_too_large")
                raise _HttpError(
                    400,
                    f"batch of {n} requests exceeds --max-inflight={self.max_inflight}; "
                    f"split the batch",
                )
            if self.inflight + n > self.max_inflight:
                self._rejections.inc(total, reason="capacity")
                raise _HttpError(
                    429,
                    f"server at capacity ({self.inflight}/{self.max_inflight} "
                    f"requests in flight)",
                    retry_after=self.retry_after_seconds,
                )
            self.inflight += n
            self.peak_inflight = max(self.peak_inflight, self.inflight)
            try:
                # Refreshes mutate the cache, so they never coalesce with
                # other clients; query groups share one pass per group key.
                groups: Dict[Any, List[Tuple[int, QueryRequest]]] = {}
                for idx, request in parsed:
                    if request.op == "refresh":
                        key = ("refresh", idx)
                    else:
                        kind = request.index_kind()
                        strict = bool(request.strict) if kind != "lcs" else True
                        key = (request.target, kind, strict)
                    groups.setdefault(key, []).append((idx, request))
                waiters = [
                    self._submit_requests(key, members, received, coalesce=key[0] != "refresh")
                    for key, members in groups.items()
                ]
                for group_slots in await asyncio.gather(*waiters):
                    for idx, entry in group_slots:
                        slots[idx] = entry
            finally:
                self.inflight -= n

        ok = sum(1 for entry in slots if entry is not None and entry.get("status") == "ok")
        self._outcomes.inc(ok, outcome="answered")
        if total > ok:
            self._outcomes.inc(total - ok, outcome="failed")
        expired = sum(
            1 for entry in slots if entry is not None and entry.get("deadline_exceeded")
        )
        degraded = sum(
            1 for entry in slots if entry is not None and entry.get("degraded")
        )
        response = {
            "schema": BATCH_SCHEMA_ID,
            "version": 2,
            "trace_id": current_trace_id(),
            "defaults": dict(defaults),
            "results": slots,
            "ok": ok,
            "errors": total - ok,
            "deadline_expired": expired,
            "degraded": degraded,
            "seconds": time.perf_counter() - received,
        }
        if expired and ok == 0:
            # Nothing in the batch beat its budget: the whole response is a
            # structured 504.  Mixed batches stay 200 — expiry is isolated
            # per request in its result entry.
            return _JsonResponse(504, response)
        return response

    async def _submit_requests(
        self,
        key,
        members: List[Tuple[int, QueryRequest]],
        received: float,
        coalesce: bool,
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """Answer one group's requests, joining an in-flight pass when possible."""
        requests = [request for _, request in members]
        joined = False
        # The coalesce span covers join/create + the wait for the pass; the
        # pass task is spawned *inside* it, so the route/worker spans of the
        # leading contributor land under its coalesce span (create_task
        # copies the contextvars context).  Joiners record the join only —
        # the pass itself belongs to the trace that started it.
        with span("coalesce", requests=len(requests)) as coalesce_span:
            pending = self._pending.get(key) if coalesce else None
            if pending is not None and not pending.sealed:
                offset = pending.add(requests)
                joined = True
                self._coalesced.inc(len(requests))
                span_event("coalesce_merge", offset=offset, requests=len(requests))
            else:
                pending = _PendingPass(key, self._loop)
                offset = pending.add(requests)
                if coalesce:
                    self._pending[key] = pending
                self._spawn(self._run_pass(pending))
            if coalesce_span is not None:
                coalesce_span.set(joined=joined)

            deadline = current_deadline()
            try:
                waiter = asyncio.shield(pending.future)
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining <= 0.0:
                        waiter.cancel()
                        raise asyncio.TimeoutError
                    batch, pass_started, pass_seconds = await asyncio.wait_for(
                        waiter, timeout=remaining
                    )
                else:
                    batch, pass_started, pass_seconds = await waiter
            except asyncio.CancelledError:
                raise
            except (asyncio.TimeoutError, DeadlineExceeded) as exc:
                # The budget died here at the edge (TimeoutError) or deeper
                # down (DeadlineExceeded, already counted at its stage).
                # Either way: structured per-request errors, the pass itself
                # keeps running for any contributor with budget left.
                if isinstance(exc, asyncio.TimeoutError):
                    note_expiry("edge", requests=len(members))
                pending.future.add_done_callback(_swallow_future_error)
                self._deadline_expired.inc(len(members))
                message = (
                    f"deadline exceeded ({deadline.describe()})"
                    if deadline is not None
                    else f"deadline exceeded: {exc}"
                )
                return [
                    (
                        idx,
                        {
                            "id": request.request_id,
                            "status": "error",
                            "error": message,
                            "deadline_exceeded": True,
                        },
                    )
                    for idx, request in members
                ]
            except Exception as exc:  # noqa: BLE001 — fault isolation per group
                message = f"{type(exc).__name__}: {exc}"
                return [
                    (idx, {"id": request.request_id, "status": "error", "error": message})
                    for idx, request in members
                ]
        queue_seconds = pass_started - received
        # Once per request, so the means are per request like every result
        # entry's queue_wait_seconds / pass_seconds.
        self._queue_wait.observe(queue_seconds, count=len(members))
        self._answer_seconds.observe(pass_seconds, count=len(members))
        entries: List[Tuple[int, Dict[str, Any]]] = []
        with span("answer", requests=len(members)):
            for slot, (idx, request) in enumerate(members):
                outcome = batch.outcomes[offset + slot]
                entries.append(
                    (
                        idx,
                        {
                            "id": request.request_id,
                            "status": "ok",
                            "degraded": bool(getattr(outcome, "degraded", False)),
                            "op": outcome.op,
                            "target": outcome.target,
                            "index_kind": outcome.index_kind,
                            "index_fingerprint": outcome.index_fingerprint,
                            "cache_hit": outcome.cache_hit,
                            "num_queries": outcome.num_queries,
                            "result": outcome.result,
                            "seconds": outcome.seconds,
                            "queue_wait_seconds": queue_seconds,
                            "pass_seconds": pass_seconds,
                            "coalesced": joined,
                        },
                    )
                )
        return entries

    async def _run_pass(self, pending: _PendingPass) -> None:
        """Seal and execute one pending pass on the service thread."""
        try:
            async with self._service_lock:
                pending.sealed = True
                if self._pending.get(pending.key) is pending:
                    del self._pending[pending.key]
                pass_started = time.perf_counter()
                try:
                    batch = await self._in_service_thread(
                        self.service.submit, list(pending.requests)
                    )
                except Exception as exc:  # noqa: BLE001
                    self._failed_passes.inc()
                    if not pending.future.done():
                        pending.future.set_exception(exc)
                    return
                self._passes.inc()
                if pending.contributions > 1:
                    self._merged_passes.inc()
                    span_event(
                        "coalesce_merged_pass",
                        contributors=pending.contributions,
                        requests=len(pending.requests),
                    )
                if not pending.future.done():
                    pending.future.set_result(
                        (batch, pass_started, time.perf_counter() - pass_started)
                    )
        finally:
            # Whatever happened, the fingerprint must not stay poisoned.
            pending.sealed = True
            if self._pending.get(pending.key) is pending:
                del self._pending[pending.key]
            if not pending.future.done():
                pending.future.set_exception(
                    RuntimeError("pass abandoned without a result")
                )

    # ------------------------------------------------------------------ builds
    async def _post_build(self, document: Any) -> Dict[str, Any]:
        if not isinstance(document, dict):
            raise _HttpError(400, "build request must be a JSON object")
        queued = sum(
            1 for rec in self._builds.values() if rec["status"] in ("queued", "running")
        )
        if queued >= self.build_queue_limit:
            raise _HttpError(
                429,
                f"build queue full ({queued}/{self.build_queue_limit})",
                retry_after=self.retry_after_seconds,
            )
        target = parse_target(document, "build target", int(self.default_seed or 0))
        kind = document.get("kind")
        if kind is not None and kind not in INDEX_KINDS:
            raise _HttpError(
                400, f"unknown index kind {kind!r}; expected one of {INDEX_KINDS}"
            )
        strict = bool(document.get("strict", True))
        token = f"b{next(self._build_counter)}"
        record = {
            "token": token,
            "status": "queued",
            "target": target.describe(),
            "kind": kind,
            "strict": strict,
            "queued_at_seconds": time.perf_counter() - self._started,
        }
        self._builds[token] = record
        self._builds_total.inc(event="started")
        self._spawn(self._run_build(token, target, kind, strict))
        return {"token": token, "status": "queued", "poll": f"/builds/{token}"}

    async def _run_build(
        self, token: str, target: TargetSpec, kind: Optional[str], strict: bool
    ) -> None:
        record = self._builds[token]
        queued = time.perf_counter()
        async with self._service_lock:
            record["status"] = "running"
            started = time.perf_counter()
            self._build_wait.observe(started - queued)
            try:
                index, was_cached = await self._in_service_thread(
                    self.service.ensure_index, target, kind, strict=strict
                )
            except Exception as exc:  # noqa: BLE001
                record["status"] = "failed"
                record["error"] = f"{type(exc).__name__}: {exc}"
                record["seconds"] = time.perf_counter() - started
                self._builds_total.inc(event="failed")
                return
            record["status"] = "done"
            record["fingerprint"] = index.fingerprint
            record["kind"] = index.kind
            record["cache_hit"] = was_cached
            record["seconds"] = time.perf_counter() - started
            self._builds_total.inc(event="done")

    def _get_build(self, token: str) -> Dict[str, Any]:
        record = self._builds.get(token)
        if record is None:
            raise _HttpError(404, f"unknown build token {token!r}")
        return dict(record)

    # ---------------------------------------------------------------- sessions
    @staticmethod
    def _symbols(values: Any, what: str) -> np.ndarray:
        try:
            symbols = np.asarray(values, dtype=np.float64).ravel()
        except (TypeError, ValueError) as exc:
            raise _HttpError(400, f"{what} must be an array of numbers: {exc}") from None
        if symbols.size == 0:
            raise _HttpError(400, f"{what} must be non-empty")
        if np.isnan(symbols).any():
            raise _HttpError(400, f"{what} must not contain NaN")
        return symbols

    @staticmethod
    def _session_id(path: str) -> str:
        sid = path[len("/sessions/"):]
        if not sid or "/" in sid:
            raise _HttpError(404, f"no route for {path}")
        return sid

    def _session_lock(self, sid: str) -> asyncio.Lock:
        """Per-session mutation lock.

        The service semaphore admits up to ``service_concurrency`` calls at
        once, but a streaming session is a single-threaded object — two
        pushes to the *same* session, or a push and its DELETE, must still
        serialise.
        """
        lock = self._session_locks.get(sid)
        if lock is None:
            lock = self._session_locks[sid] = asyncio.Lock()
        return lock

    async def _post_session(self, document: Any) -> Dict[str, Any]:
        if not isinstance(document, dict):
            raise _HttpError(400, "session request must be a JSON object")
        kind = document.get("kind", "lis")
        if kind not in ("lis", "lcs"):
            raise _HttpError(400, f"session kind must be 'lis' or 'lcs', got {kind!r}")
        window = document.get("window")
        if window is not None:
            window = int(window)
        strict = bool(document.get("strict", True))
        sid = f"s{next(self._session_counter)}"
        if kind == "lis":
            session = StreamingLIS(window=window, strict=strict)
            initial = document.get("push")
        else:
            target = parse_target(document, "session target", int(self.default_seed or 0))
            if target.kind != "string_pair":
                raise _HttpError(400, "lcs sessions need a string-pair target")
            s, _t = target.realise()
            session = StreamingLCS(s, window=window)
            initial = document.get("push")
        meta = {
            "id": sid,
            "kind": kind,
            "window": window,
            "strict": strict if kind == "lis" else True,
            "target": document.get("string_workload") or document.get("workload"),
        }
        initial_symbols = (
            self._symbols(initial, "'push'") if initial is not None else None
        )
        # Nobody can address the session before it is registered, so the
        # first push needs no session lock.
        async with self._service_lock:
            state, _ = await self._in_service_thread(
                self._advance_session, session, meta, initial_symbols
            )
        self._sessions[sid] = session
        self._session_states[sid] = state
        return dict(state)

    async def _push_session(self, sid: str, document: Any) -> Dict[str, Any]:
        self._known_session(sid)
        if not isinstance(document, dict) or "symbols" not in document:
            raise _HttpError(400, "push needs a JSON object with 'symbols'")
        symbols = self._symbols(document["symbols"], "'symbols'")
        async with self._session_lock(sid), self._service_lock:
            # A DELETE holds the same lock, so the session is either still
            # here or already gone when the push gets its turn.
            session, state = self._known_session(sid)
            state, dropped = await self._in_service_thread(
                self._advance_session, session, state, symbols
            )
            self._session_states[sid] = state
        return {**state, "dropped": int(dropped)}

    def _known_session(self, sid: str) -> Tuple[Any, Dict[str, Any]]:
        """``(session, kept state)``, or a 404."""
        session = self._sessions.get(sid)
        if session is None:
            raise _HttpError(404, f"unknown session {sid!r}")
        return session, self._session_states[sid]

    @staticmethod
    def _advance_session(
        session: Any, meta: Dict[str, Any], symbols: Optional[np.ndarray]
    ) -> Tuple[Dict[str, Any], int]:
        """Push ``symbols`` (if any) and read the answer: ``(state, dropped)``.

        Runs on the service thread under the session's lock, so the answer
        is never computed on the event loop, nor while the session mutates.
        """
        dropped = session.push(symbols) if symbols is not None else 0
        if meta["kind"] == "lis":
            size = len(session)
            answer = session.lis_length() if size else 0
        else:
            size = session.t_length
            answer = session.lcs_length() if size else 0
        counters = session.counters()
        state = {key: meta[key] for key in ("id", "kind", "window", "strict", "target")}
        state.update(
            size=int(size),
            answer=int(answer),
            ticks=int(counters.get("ticks", 0)),
            blocks_built=int(counters.get("blocks_built", 0)),
        )
        return state, int(dropped)

    async def _delete_session(self, sid: str) -> Dict[str, Any]:
        self._known_session(sid)
        async with self._session_lock(sid):
            self._known_session(sid)
            del self._sessions[sid]
            del self._session_states[sid]
            self._session_locks.pop(sid, None)
        return {"id": sid, "status": "deleted"}

    # ------------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` document: a JSON view over :meth:`metrics_snapshot`.

        Counts are sums of the snapshot's series; ``timings`` summarise its
        histograms (``p99_seconds`` is a bucket estimate).  Queue depths are
        the live control state.  The service section comes from the same
        :meth:`scrape` as the snapshot, so a shard router polls each shard
        once per document.
        """
        service_snapshots, service_stats = self.service.scrape()
        snapshot = self.metrics_snapshot(service_snapshots)
        count = functools.partial(snapshot_value, snapshot)
        return {
            "schema": STATS_SCHEMA_ID,
            "version": STATS_SCHEMA_VERSION,
            "stats_schema": f"{STATS_SCHEMA_ID}.v{STATS_SCHEMA_VERSION}",
            "uptime_seconds": time.perf_counter() - self._started,
            "max_inflight": self.max_inflight,
            "service_concurrency": self.service_concurrency,
            "inflight": self.inflight,
            "peak_inflight": self.peak_inflight,
            "build_queue_limit": self.build_queue_limit,
            "internal_errors": count("repro_server_internal_errors_total"),
            "requests": {
                "received": count("repro_server_requests_received_total"),
                "answered": count("repro_server_requests_total", outcome="answered"),
                "rejected": count("repro_server_rejections_total"),
                "failed": count("repro_server_requests_total", outcome="failed"),
                "parse_errors": count("repro_server_parse_errors_total"),
                "deadline_expired": count("repro_server_deadline_expired_total"),
                # Counted once, by the shard router that served them.
                "degraded": count("repro_degraded_requests_total"),
            },
            "resilience": {
                "default_deadline_ms": self.default_deadline_ms,
            },
            "coalescing": {
                "passes": count("repro_server_passes_total"),
                "merged_passes": count("repro_server_merged_passes_total"),
                "coalesced_requests": count("repro_server_coalesced_requests_total"),
                "failed_passes": count("repro_server_failed_passes_total"),
                "inflight_fingerprints": len(self._pending),
            },
            "builds": {
                "started": count("repro_server_builds_total", event="started"),
                "done": count("repro_server_builds_total", event="done"),
                "failed": count("repro_server_builds_total", event="failed"),
                "queued": sum(
                    1
                    for rec in self._builds.values()
                    if rec["status"] in ("queued", "running")
                ),
                "limit": self.build_queue_limit,
            },
            "sessions": {"live": len(self._sessions)},
            "tracing": self.tracer.stats(),
            "timings": {
                "queue_wait": snapshot_timing(snapshot, "repro_server_queue_wait_seconds"),
                "answer": snapshot_timing(snapshot, "repro_server_answer_seconds"),
                "build_wait": snapshot_timing(snapshot, "repro_server_build_wait_seconds"),
            },
            "service": service_stats,
        }
