"""The sharded serving tier: consistent-hash routing across worker processes.

One :class:`~repro.service.serving.QueryService` process is a throughput
ceiling — every build and every vectorised pass runs on one core.  The
:class:`ShardRouter` removes that ceiling without changing a single answer:

1. every request is mapped to the **content fingerprint** of the index it
   needs (the same ``(target, kind, strict) → fingerprint`` identity the
   single-process service caches by),
2. a :class:`ConsistentHashRing` assigns each fingerprint to one of N
   **long-lived worker processes**, each owning a private
   :class:`~repro.service.cache.IndexCache` (own byte budget, own ``.npz``
   spill subdirectory — no cross-process file collisions),
3. a mixed batch is **split by owning shard**, the per-shard sub-batches are
   dispatched concurrently, and the answers are **demuxed back by position**
   — so ``router.submit(batch)`` is bit-identical to
   ``QueryService.submit(batch)`` (the test-suite and the ``shard_scaling``
   experiment assert exactly that).

Consistent hashing (not ``hash(fp) % N``) keeps cache locality under
resizing: adding a shard moves only ~1/(N+1) of the fingerprints, and every
moved fingerprint lands on the *new* shard — resident caches on the old
shards stay warm.

Worker lifecycle follows the prepare/submit/wait-with-retry fan-out shape of
the cluster-tools pattern: sub-batches are prepared per shard
(``n_jobs = min(len(sub_batches), shards)``), submitted over per-worker
pipes, and a worker that dies mid-call (detected by pipe EOF / liveness) is
restarted and its sub-batch retried at once, a bounded number of times,
before the error surfaces; a crash loop trips the shard's circuit breaker
into degraded serving.  When processes cannot be spawned at all — a daemonic
experiment-runner worker, a sandbox without ``multiprocessing`` primitives,
or an explicit ``force_serial=True`` — the router degrades gracefully to
**in-process shards** with identical semantics (same ring, same per-shard
caches, same answers; only the parallelism is gone) and records the fallback
in its stats.  The same :class:`_InlineWorker` class also serves a shard
whose circuit breaker is open: one lazily built instance, called under one
lock, answers those sub-batches flagged ``degraded``.

Worker processes reuse the engine-layer conventions of
:mod:`repro.mpc.engine` (fork context, daemonic-process detection); MPC
builds inside a worker automatically run their execution backend inline,
so shard workers never spawn nested pools.

Observability: every router count and timing lives in the router's own
:class:`~repro.obs.metrics.MetricsRegistry` (``router.metrics``).
:meth:`ShardRouter.stats` is a view over it plus the per-shard
service/cache stats — requests routed per shard, load imbalance
(max/mean), worker restarts and hangs, bounded retries, degraded requests,
and the queue-wait vs shard-execution timing split that makes imbalance
diagnosable from ``/stats`` alone.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import hashlib
import os
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..mpc.engine import fork_context, in_daemonic_process
from ..obs.metrics import (
    MetricsRegistry,
    get_registry,
    relabel_snapshot,
    snapshot_timing,
    snapshot_value,
)
from ..obs.trace import span, span_event
from ..resilience.breaker import BREAKER_STATE_CODES, CircuitBreaker
from ..resilience.deadline import DeadlineExceeded, current_deadline, note_expiry
from ..resilience.faults import FaultPlan, active_plan, fault_point, install_plan
from .cache import DEFAULT_CACHE_BYTES, IndexCache
from .index import INDEX_KINDS, lcs_index_fingerprint, lis_index_fingerprint
from .requests import OPS, QueryRequest, ServiceRequestError, TargetSpec
from .serving import QueryService, ServiceBatchResult

__all__ = [
    "ConsistentHashRing",
    "IndexInfo",
    "ShardConfig",
    "ShardRouter",
    "ShardRetriesExhausted",
    "ShardWorkerCrash",
    "ShardWorkerHang",
    "DEFAULT_RING_REPLICAS",
    "DEFAULT_WORKER_TIMEOUT",
]

#: Virtual nodes per shard on the hash ring.  More replicas smooth the key
#: distribution (the std-dev of per-shard load shrinks like 1/sqrt(R)).
DEFAULT_RING_REPLICAS = 96

#: How long the router waits on a worker pipe before declaring the worker
#: hung and killing it (seconds).  Generous by default — an index build can
#: legitimately take a while — and tightened per deployment via
#: ``--worker-timeout-ms``.  Request deadlines bound individual waits much
#: tighter; this is the *liveness* backstop that replaces the old
#: wait-forever ``conn.recv()``.
DEFAULT_WORKER_TIMEOUT = 120.0

#: Pipe poll granularity: small enough that kill decisions are prompt,
#: large enough that an idle wait costs ~20 wakeups/second at worst.
_POLL_STEP = 0.05


class ShardWorkerCrash(RuntimeError):
    """A worker process died mid-call (pipe EOF / dead process)."""


class ShardWorkerHang(ShardWorkerCrash):
    """A worker stayed alive but unresponsive past the worker timeout.

    Subclasses :class:`ShardWorkerCrash` deliberately: a hung worker is
    *killed* and then handled exactly like a crashed one (restart, bounded
    retry) — the taxonomy only matters for counters and span events.
    """


class ShardRetriesExhausted(RuntimeError):
    """A sub-batch crashed its worker on the first try and every retry."""


class ConsistentHashRing:
    """Deterministic consistent hashing of fingerprints onto shard ids.

    Each shard contributes ``replicas`` virtual nodes at SHA-256-derived
    positions on a 64-bit ring; a key is owned by the first virtual node at
    or after its own position (wrapping).  Adding shard N+1 only inserts new
    virtual nodes, so the only keys that move are those now preceded by one
    of them — ~1/(N+1) of the keyspace, all landing on the new shard.
    """

    def __init__(self, shards: int, replicas: int = DEFAULT_RING_REPLICAS) -> None:
        if shards < 1:
            raise ValueError(f"ring needs at least 1 shard, got {shards}")
        if replicas < 1:
            raise ValueError(f"ring needs at least 1 replica per shard, got {replicas}")
        self.shards = int(shards)
        self.replicas = int(replicas)
        points = sorted(
            (self._position(f"shard-{shard}#vnode-{replica}"), shard)
            for shard in range(self.shards)
            for replica in range(self.replicas)
        )
        self._positions = [position for position, _ in points]
        self._owners = [owner for _, owner in points]

    @staticmethod
    def _position(key: str) -> int:
        return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")

    def owner(self, key: str) -> int:
        """The shard id owning ``key`` (a fingerprint hex string)."""
        index = bisect.bisect_right(self._positions, self._position(key))
        if index == len(self._positions):
            index = 0
        return self._owners[index]


@dataclass(frozen=True)
class IndexInfo:
    """Lightweight view of a worker-resident index (what crosses the pipe).

    :meth:`ShardRouter.ensure_index` returns this instead of the full
    :class:`~repro.service.index.SemiLocalIndex` — shipping a built matrix
    back over the pipe would cost more than the build amortises.  It carries
    exactly what warm-up and build-polling callers need.
    """

    fingerprint: str
    kind: str
    length: int
    nbytes: int
    was_built: bool


@dataclass(frozen=True)
class ShardConfig:
    """Per-worker service configuration (picklable; shipped at spawn time)."""

    mode: str = "sequential"
    delta: float = 0.5
    backend: Optional[str] = None
    cache_bytes: int = DEFAULT_CACHE_BYTES
    spill_root: Optional[str] = None
    #: Chaos-testing plan, installed by each worker at startup so the
    #: worker-side fault sites (dispatch, spill load, index build) fire in
    #: the worker process (plans are picklable; counters restart per pid).
    fault_plan: Optional[FaultPlan] = None


def _worker_spill_dir(config: ShardConfig, shard_id: int) -> Optional[str]:
    """The worker's private spill subdirectory (unique per shard *and* pid).

    Workers sharing one spill root would otherwise collide on
    ``<fingerprint>.npz`` names; the pid component additionally isolates two
    routers (or a restarted worker) pointed at the same root.
    """
    if not config.spill_root:
        return None
    return os.path.join(config.spill_root, f"shard{shard_id}-pid{os.getpid()}")


def _build_worker_service(config: ShardConfig, shard_id: int) -> Tuple[QueryService, Optional[str]]:
    spill_dir = _worker_spill_dir(config, shard_id)
    cache = IndexCache(max_bytes=config.cache_bytes, spill_dir=spill_dir)
    service = QueryService(
        cache=cache,
        mode=config.mode,
        delta=config.delta,
        backend=config.backend,
    )
    return service, spill_dir


def _normalise_ensure(target: TargetSpec, kind: Optional[str], strict: bool) -> Tuple[str, bool]:
    """The kind/strict normalisation of :meth:`QueryService.ensure_index`.

    Replicated router-side because the routing fingerprint must be computed
    *before* any worker is involved — and must reject bad kinds with the
    same :class:`ServiceRequestError` the single-process service raises.
    """
    if kind is None:
        kind = "lcs" if target.kind == "string_pair" else "lis:position"
    if kind not in INDEX_KINDS:
        raise ServiceRequestError(f"unknown index kind {kind!r}; expected one of {INDEX_KINDS}")
    if (kind == "lcs") != (target.kind == "string_pair"):
        raise ServiceRequestError(f"index kind {kind!r} does not fit a {target.kind!r} target")
    return kind, (True if kind == "lcs" else bool(strict))


def _execute_command(
    service: QueryService, shard_id: int, spill_dir: Optional[str], cmd: str, payload: Any
) -> Any:
    """One worker command, shared verbatim by process and in-process shards."""
    if cmd == "ping":
        return {"shard": shard_id, "pid": os.getpid(), "spill_dir": spill_dir}
    if cmd == "submit":
        batch = service.submit(payload)
        return batch.outcomes, batch.indexes_built, batch.indexes_reused
    if cmd == "ensure":
        target, kind, strict = payload
        index, was_cached = service.ensure_index(target, kind, strict=strict)
        info = IndexInfo(
            fingerprint=index.fingerprint,
            kind=index.kind,
            length=int(index.length),
            nbytes=int(index.nbytes),
            was_built=not was_cached,
        )
        return info, was_cached
    if cmd == "prefetch":
        warmed = already = 0
        for target, kind, strict in payload:
            _, was_cached = service.ensure_index(target, kind, strict=strict)
            warmed += 1
            already += 1 if was_cached else 0
        return {"prefetched": warmed, "already_cached": already}
    if cmd == "stats":
        doc = service.stats()
        doc["shard"] = shard_id
        doc["pid"] = os.getpid()
        doc["spill_dir"] = spill_dir
        return doc
    if cmd == "metrics":
        # The worker process's whole registry snapshot (plain picklable
        # dicts); the router stamps it with a shard label and merges it into
        # the /metrics exposition.
        return get_registry().snapshot()
    raise RuntimeError(f"unknown shard worker command {cmd!r}")


def _shard_worker_main(conn, shard_id: int, config: ShardConfig) -> None:
    """Worker-process entry point: serve pipe commands until shutdown.

    Application errors travel back as structured envelopes (the router
    re-raises :class:`ServiceRequestError` for request-level problems) so a
    malformed request never kills the worker; only a genuine crash (signal,
    interpreter death) severs the pipe and triggers the restart path.
    """
    # Fork copies the parent's live registry (counters mid-flight): start
    # this process's counts from zero or the merged /metrics exposition
    # double-counts after every worker restart.
    get_registry().reset()
    if config.fault_plan is not None:
        install_plan(config.fault_plan)
    service, spill_dir = _build_worker_service(config, shard_id)
    try:
        while True:
            try:
                cmd, payload = conn.recv()
            except (EOFError, OSError):
                break
            if cmd == "shutdown":
                try:
                    conn.send(("ok", None))
                except (OSError, BrokenPipeError):
                    pass
                break
            try:
                # The dispatch fault site runs inside the error envelope:
                # "error" faults travel back as structured internal errors,
                # while "crash"/"hang" behave like the real thing (pipe EOF
                # / unresponsive worker) and exercise the recovery paths.
                fault_point("worker.dispatch", shard=shard_id, cmd=cmd)
                result = _execute_command(service, shard_id, spill_dir, cmd, payload)
                conn.send(("ok", result))
            except ServiceRequestError as exc:
                conn.send(("error", ("request", str(exc))))
            except Exception as exc:  # noqa: BLE001 — workers must stay up
                conn.send(("error", ("internal", f"{type(exc).__name__}: {exc}")))
    finally:
        if spill_dir is not None:
            shutil.rmtree(spill_dir, ignore_errors=True)
        conn.close()


class _WorkerBase:
    """Common surface of the two worker flavours (process and inline)."""

    kind = "abstract"

    def __init__(self, shard_id: int, config: ShardConfig) -> None:
        self.shard_id = shard_id
        self.config = config
        #: Serialises calls onto this worker's pipe/service (one in-flight
        #: command per worker; the router's timing split measures the wait).
        self.lock = threading.Lock()
        self.spill_dir: Optional[str] = None

    def call(
        self,
        cmd: str,
        payload: Any,
        deadline_seconds: Optional[float] = None,
        hang_seconds: Optional[float] = None,
    ) -> Any:
        raise NotImplementedError

    def restart(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    def _cleanup_spill(self) -> None:
        if self.spill_dir is not None:
            shutil.rmtree(self.spill_dir, ignore_errors=True)


class _ProcessWorker(_WorkerBase):
    """A long-lived worker process reached over a duplex pipe."""

    kind = "process"

    def __init__(self, shard_id: int, config: ShardConfig, ctx) -> None:
        super().__init__(shard_id, config)
        self._ctx = ctx
        self.process = None
        self.conn = None
        #: Answers owed to calls a deadline abandoned mid-wait.  The pipe is
        #: strictly request→response, so an abandoned call leaves one stale
        #: message in flight; the next call drains it first to stay in sync
        #: (this is what keeps a short deadline from costing a warm cache).
        self._stale = 0
        self._spawn()

    def _spawn(self) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(child, self.shard_id, self.config),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        process.start()
        child.close()
        self.process = process
        self.conn = parent
        self._stale = 0
        # The worker derives its spill subdir from its own pid; mirror the
        # derivation here so leftover directories of *crashed* workers can
        # still be removed at router close.
        if self.config.spill_root:
            self.spill_dir = os.path.join(
                self.config.spill_root, f"shard{self.shard_id}-pid{process.pid}"
            )

    def call(
        self,
        cmd: str,
        payload: Any,
        deadline_seconds: Optional[float] = None,
        hang_seconds: Optional[float] = None,
    ) -> Any:
        """One pipe round-trip, waited with poll — never a blocking recv.

        ``hang_seconds`` is the liveness budget: a worker that produces no
        answer within it is declared hung, **killed** and reported as
        :class:`ShardWorkerHang` (the restart/retry path treats it exactly
        like a crash).  ``deadline_seconds`` is the *request's* remaining
        budget: when it runs out first the call is abandoned — the worker
        stays alive (its answer is drained by the next call) and the caller
        gets :class:`~repro.resilience.deadline.DeadlineExceeded`.
        """
        if self.process is None or not self.process.is_alive():
            raise ShardWorkerCrash(f"shard {self.shard_id} worker process is dead")
        now = time.monotonic()
        hang_at = now + hang_seconds if hang_seconds is not None else None
        deadline_at = now + deadline_seconds if deadline_seconds is not None else None
        try:
            self._drain_stale(hang_at)
            fault_point("pipe.send", shard=self.shard_id, cmd=cmd)
            self.conn.send((cmd, payload))
            fault_point("pipe.recv", shard=self.shard_id, cmd=cmd)
            self._await_answer(cmd, hang_at, deadline_at)
            status, result = self.conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise ShardWorkerCrash(
                f"shard {self.shard_id} worker died mid-call ({type(exc).__name__})"
            ) from None
        if status == "ok":
            return result
        category, message = result
        if category == "request":
            raise ServiceRequestError(message)
        raise RuntimeError(f"shard {self.shard_id} worker error: {message}")

    def _drain_stale(self, hang_at: Optional[float]) -> None:
        """Discard answers owed to deadline-abandoned calls (resync the pipe)."""
        while self._stale > 0:
            now = time.monotonic()
            if hang_at is not None and now >= hang_at:
                self._kill()
                raise ShardWorkerHang(
                    f"shard {self.shard_id} worker never delivered an abandoned "
                    f"call's answer; killed"
                )
            step = _POLL_STEP if hang_at is None else min(_POLL_STEP, hang_at - now)
            if self.conn.poll(max(step, 0.0)):
                self.conn.recv()
                self._stale -= 1
            elif self.process is None or not self.process.is_alive():
                raise ShardWorkerCrash(
                    f"shard {self.shard_id} worker died while draining stale answers"
                )

    def _await_answer(
        self, cmd: str, hang_at: Optional[float], deadline_at: Optional[float]
    ) -> None:
        """Poll until the answer is readable, a timeout fires, or the worker dies."""
        while True:
            now = time.monotonic()
            step = _POLL_STEP
            if hang_at is not None:
                if now >= hang_at:
                    self._kill()
                    raise ShardWorkerHang(
                        f"shard {self.shard_id} worker unresponsive on {cmd!r}; killed"
                    )
                step = min(step, hang_at - now)
            if deadline_at is not None:
                if now >= deadline_at:
                    # Abandon, don't kill: the worker is (as far as we know)
                    # healthy mid-compute; its late answer is drained by the
                    # next call so the warm cache survives the tight budget.
                    self._stale += 1
                    note_expiry("worker", shard=self.shard_id, cmd=cmd)
                    raise DeadlineExceeded(
                        f"deadline expired waiting on shard {self.shard_id} ({cmd})",
                        stage="worker",
                    )
                step = min(step, deadline_at - now)
            if self.conn.poll(max(step, 0.0)):
                return
            if self.process is None or not self.process.is_alive():
                raise ShardWorkerCrash(
                    f"shard {self.shard_id} worker died mid-call (process exit)"
                )

    def _kill(self) -> None:
        """Terminate a hung-but-alive worker so restart() does not wait on it."""
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
        self._stale = 0

    def restart(self) -> None:
        self._teardown(graceful=False)
        self._spawn()

    def stop(self) -> None:
        self._teardown(graceful=True)
        self._cleanup_spill()

    def _teardown(self, graceful: bool) -> None:
        if self.conn is not None:
            if graceful and self.process is not None and self.process.is_alive():
                try:
                    self.conn.send(("shutdown", None))
                    # Wait for the ack so the worker's spill cleanup ran.
                    if self.conn.poll(5.0):
                        self.conn.recv()
                except (EOFError, OSError, BrokenPipeError):
                    pass
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
        if self.process is not None:
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=5.0)
            self.process = None


class _InlineWorker(_WorkerBase):
    """A shard served in-process: the one serial fallback.

    Same ring position, same private cache and spill subdirectory, same
    command surface — only the process boundary (and therefore the
    parallelism) is gone.  Used for every shard when the router runs inside
    a daemonic worker, when multiprocessing is unavailable, or on
    ``force_serial``; and, as the router's degraded fallback, for the
    sub-batches of shards whose breaker is open.
    """

    kind = "inline"

    def __init__(self, shard_id: int, config: ShardConfig) -> None:
        super().__init__(shard_id, config)
        self._service, self.spill_dir = _build_worker_service(config, shard_id)

    def call(
        self,
        cmd: str,
        payload: Any,
        deadline_seconds: Optional[float] = None,
        hang_seconds: Optional[float] = None,
    ) -> Any:
        # Inline execution cannot hang on a pipe; the timeouts are accepted
        # for signature parity and ignored (deadlines are still enforced at
        # the router and edge checkpoints around this call).
        return _execute_command(self._service, self.shard_id, self.spill_dir, cmd, payload)

    def restart(self) -> None:  # pragma: no cover - inline workers cannot crash
        self._service, self.spill_dir = _build_worker_service(self.config, self.shard_id)

    def stop(self) -> None:
        self._cleanup_spill()


class ShardRouter:
    """Fan a mixed query batch out across N sharded worker processes.

    The router exposes the :class:`QueryService` serving surface —
    :meth:`submit`, :meth:`ensure_index`, :meth:`stats` — plus
    :meth:`prefetch` (warm-up) and :meth:`close` (worker teardown), and a
    ``concurrency`` attribute the HTTP front-end uses to size its executor.
    Answers are bit-identical to a single-process service; only wall-clock
    and cache placement change.  Every router count and timing is recorded
    in :attr:`metrics`, a private registry that :meth:`stats` reads and
    :meth:`extra_metric_snapshots` hands to the server's ``/metrics``.
    Each shard has a default :class:`~repro.resilience.breaker.CircuitBreaker`
    and :data:`DEFAULT_RING_REPLICAS` virtual nodes on the ring.

    Parameters
    ----------
    shards:
        Worker count (default: ``max(2, cpu_count)``, mirroring the engine
        backends).
    mode, delta, backend:
        Per-worker :class:`QueryService` build mechanics.
    cache_bytes:
        Per-worker in-memory index budget.
    spill_dir:
        Spill root; every worker derives a private ``shardI-pidP``
        subdirectory under it and removes it at shutdown.
    retry_limit:
        Immediate restart-and-retry attempts per sub-batch after a worker
        crash (the prepare/submit/wait-with-retry fan-out pattern).  A
        crash loop past them is bounded by the shard's circuit breaker,
        which every failed attempt feeds.
    worker_timeout:
        Liveness budget (seconds) for one worker pipe wait; a worker
        silent past it is killed and restarted like a crashed one.
    fault_plan:
        Chaos plan, installed process-wide *and* shipped to every worker.
    force_serial:
        Skip process workers and serve every shard in-process.
    """

    def __init__(
        self,
        shards: Optional[int] = None,
        *,
        mode: str = "sequential",
        delta: float = 0.5,
        backend: Optional[str] = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        spill_dir: Optional[str] = None,
        retry_limit: int = 2,
        worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
        fault_plan: Optional[FaultPlan] = None,
        force_serial: bool = False,
    ) -> None:
        if shards is None:
            shards = max(2, os.cpu_count() or 1)
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        if retry_limit < 0:
            raise ValueError(f"retry_limit must be non-negative, got {retry_limit}")
        if worker_timeout <= 0:
            raise ValueError(f"worker_timeout must be positive, got {worker_timeout}")
        self.shards = int(shards)
        self.retry_limit = int(retry_limit)
        self.worker_timeout = float(worker_timeout)
        if fault_plan is not None:
            # The router-side sites (pipe.send/recv, and cache/build sites
            # of the inline fallback) read the process-wide plan; workers
            # additionally install their shipped copy at startup.
            install_plan(fault_plan)
        self.config = ShardConfig(
            mode=mode,
            delta=float(delta),
            backend=backend,
            cache_bytes=int(cache_bytes),
            spill_root=spill_dir,
            fault_plan=fault_plan,
        )
        self.ring = ConsistentHashRing(self.shards)
        self.serial_fallback: Optional[str] = None
        self._workers: List[_WorkerBase] = []
        self._start_workers(force_serial)
        self._pool = ThreadPoolExecutor(
            max_workers=self.shards, thread_name_prefix="repro-shard-router"
        )
        self._fingerprints: Dict[Tuple[TargetSpec, str, bool], str] = {}
        self.closed = False
        #: The degraded fallback: built on the first open breaker and called
        #: only under ``_fallback_lock``, because a ``QueryService`` is
        #: single-threaded and every pool thread may need it at once.
        self._fallback_lock = threading.Lock()
        self._fallback: Optional[_InlineWorker] = None
        self.metrics = MetricsRegistry()
        counter, histogram = self.metrics.counter, self.metrics.histogram
        self._pipe_seconds = histogram(
            "repro_shard_pipe_seconds",
            "Router-side round-trip of one worker command (pipe + execution)",
            ("cmd",),
        )
        self._queue_wait = histogram(
            "repro_shard_queue_wait_seconds", "Time a routed request waited for its worker"
        )
        self._shard_exec = histogram(
            "repro_shard_exec_seconds", "Worker round-trip attributed to routed requests"
        )
        self._batches = counter("repro_router_batches_total", "Batches answered by the router")
        self._routed = counter(
            "repro_shard_requests_total", "Requests routed to each shard", ("shard",)
        )
        self._sub_batches = counter(
            "repro_shard_sub_batches_total", "Sub-batches dispatched to each shard", ("shard",)
        )
        self._restarts = counter(
            "repro_shard_restarts_total", "Worker restarts after a crash, per shard", ("shard",)
        )
        self._hangs = counter(
            "repro_shard_hangs_total", "Hung workers detected (and killed), per shard", ("shard",)
        )
        self._retries = counter(
            "repro_shard_retries_total", "Sub-batches retried after a worker crash"
        )
        self._degraded = counter(
            "repro_degraded_requests_total",
            "Requests served by the inline degraded fallback (breaker open / "
            "retries exhausted)",
            ("shard",),
        )
        self._breaker_transitions = counter(
            "repro_breaker_transitions_total",
            "Circuit breaker state transitions per shard",
            ("shard", "from", "to"),
        )
        self._breaker_state = self.metrics.gauge(
            "repro_breaker_state",
            "Per-shard breaker state (0=closed, 1=half_open, 2=open)",
            ("shard",),
        )
        for shard in range(self.shards):
            # Every shard's series exists from the start, at zero.
            for series in (self._routed, self._sub_batches, self._restarts, self._hangs):
                series.inc(0, shard=shard)
            self._breaker_state.set(BREAKER_STATE_CODES["closed"], shard=shard)
        self._breakers = [
            CircuitBreaker(name=str(shard), on_transition=self._note_breaker_transition)
            for shard in range(self.shards)
        ]

    # ------------------------------------------------------------- lifecycle
    @property
    def concurrency(self) -> int:
        """How many service calls may usefully run at once (shard count)."""
        return self.shards if self.serial_fallback is None else 1

    def _start_workers(self, force_serial: bool) -> None:
        if force_serial:
            self.serial_fallback = "forced"
        elif in_daemonic_process():
            # Daemonic pool workers (the experiment runner's --workers
            # fan-out) cannot spawn children; same rule as ProcessBackend.
            self.serial_fallback = "daemonic process"
        if self.serial_fallback is None:
            try:
                ctx = fork_context()
                self._workers = [
                    _ProcessWorker(shard, self.config, ctx) for shard in range(self.shards)
                ]
                return
            except Exception as exc:  # pragma: no cover - sandboxed hosts
                for worker in self._workers:
                    try:
                        worker.stop()
                    except Exception:
                        pass
                self._workers = []
                self.serial_fallback = f"multiprocessing unavailable: {type(exc).__name__}: {exc}"
        self._workers = [_InlineWorker(shard, self.config) for shard in range(self.shards)]

    def close(self) -> None:
        """Shut every worker down and remove their spill subdirectories."""
        if self.closed:
            return
        self.closed = True
        self._pool.shutdown(wait=True)
        for worker in self._workers:
            with worker.lock:
                try:
                    worker.stop()
                except Exception:  # noqa: BLE001 — teardown is best-effort
                    pass

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- routing
    def routing_fingerprint(self, target: TargetSpec, kind: str, strict: bool) -> str:
        """The content fingerprint a request routes by (memoised per spec)."""
        key = (target, kind, strict)
        fingerprint = self._fingerprints.get(key)
        if fingerprint is None:
            realised = target.realise()
            if kind == "lcs":
                fingerprint = lcs_index_fingerprint(*realised)
            else:
                fingerprint = lis_index_fingerprint(realised, kind, strict)
            self._fingerprints[key] = fingerprint
        return fingerprint

    def shard_for(self, target: TargetSpec, kind: str, strict: bool) -> int:
        """The shard id owning the index a ``(target, kind, strict)`` needs."""
        return self.ring.owner(self.routing_fingerprint(target, kind, strict))

    def _shard_for_request(self, request: QueryRequest) -> int:
        kind = request.index_kind()
        strict = bool(request.strict) if kind != "lcs" else True
        # Refresh routes by the *original* target's value index — that is the
        # cached product it patches in place; the re-fingerprinted extended
        # index lands in the same worker's cache.
        return self.shard_for(request.target, kind, strict)

    def _note_breaker_transition(self, name: str, old: str, new: str) -> None:
        self._breaker_transitions.inc(shard=name, **{"from": old, "to": new})
        self._breaker_state.set(BREAKER_STATE_CODES[new], shard=name)
        span_event("breaker_transition", shard=name, old_state=old, new_state=new)

    def _call(
        self,
        shard_id: int,
        cmd: str,
        payload: Any,
        request_count: int = 0,
        breaker: Optional[CircuitBreaker] = None,
    ) -> Any:
        """One worker command with crash/hang detection and immediate retry.

        The wait on the pipe is bounded twice over: by ``worker_timeout``
        (liveness — a silent worker is killed and restarted) and by the
        ambient request deadline (the call is abandoned, the worker lives).
        A crash restarts the worker and retries at once, up to
        ``retry_limit`` times (a private worker behind ``worker.lock`` has
        no other callers to back off for).  When ``breaker`` is given, every
        attempt's outcome feeds the shard's circuit breaker, which turns a
        crash loop into degraded serving.
        """
        worker = self._workers[shard_id]
        deadline = current_deadline()
        waited_from = time.perf_counter()
        with worker.lock:
            waited = time.perf_counter() - waited_from
            last_crash: Optional[ShardWorkerCrash] = None
            attempt = 0
            while True:
                if deadline is not None and deadline.expired:
                    note_expiry("router", shard=shard_id, cmd=cmd)
                    raise DeadlineExceeded(
                        f"deadline ({deadline.describe()}) expired before shard "
                        f"{shard_id} dispatch",
                        stage="router",
                    )
                executing_from = time.perf_counter()
                try:
                    result = worker.call(
                        cmd,
                        payload,
                        deadline_seconds=(
                            deadline.remaining() if deadline is not None else None
                        ),
                        hang_seconds=self.worker_timeout,
                    )
                except ShardWorkerCrash as crash:
                    last_crash = crash
                    attempt += 1
                    if breaker is not None:
                        breaker.record_failure()
                    if isinstance(crash, ShardWorkerHang):
                        self._hangs.inc(shard=shard_id)
                        span_event(
                            "shard_hang", shard=shard_id, cmd=cmd, attempt=attempt
                        )
                    span_event(
                        "shard_restart", shard=shard_id, attempt=attempt - 1, cmd=cmd
                    )
                    worker.restart()
                    self._restarts.inc(shard=shard_id)
                    if attempt > self.retry_limit:
                        break
                    self._retries.inc()
                    span_event("shard_retry", shard=shard_id, attempt=attempt)
                    continue
                except DeadlineExceeded:
                    raise
                except ServiceRequestError:
                    # The worker answered; the *request* was bad.  Healthy.
                    if breaker is not None:
                        breaker.record_success()
                    raise
                except RuntimeError:
                    # Structured internal error (or an injected router-side
                    # fault): the worker is alive but failing — this is the
                    # error-rate signal the breaker's window threshold eats.
                    if breaker is not None:
                        breaker.record_failure()
                    raise
                if breaker is not None:
                    breaker.record_success()
                executed = time.perf_counter() - executing_from
                self._pipe_seconds.observe(executed, cmd=cmd)
                if request_count:
                    # The timing split covers request-bearing work only
                    # (submit / ensure), not stats polls — otherwise every
                    # /stats scrape would dilute the means it reports.
                    self._routed.inc(request_count, shard=shard_id)
                    self._sub_batches.inc(shard=shard_id)
                    self._queue_wait.observe(waited, count=request_count)
                    self._shard_exec.observe(executed, count=request_count)
                return result
        raise ShardRetriesExhausted(
            f"shard {shard_id} worker crashed {attempt} times on one "
            f"sub-batch; giving up ({last_crash})"
        )

    # ---------------------------------------------------------------- submit
    def submit(self, requests: Sequence[QueryRequest]) -> ServiceBatchResult:
        """Answer a mixed batch, bit-identically to ``QueryService.submit``.

        The batch is split by owning shard, the per-shard sub-batches are
        dispatched concurrently (each preserves its requests' relative
        order, which ``QueryService.submit`` echoes back), and the per-shard
        outcome lists are demuxed into the original batch positions.
        """
        if self.closed:
            raise RuntimeError("ShardRouter is closed")
        requests = list(requests)
        started = time.perf_counter()
        sub_batches: Dict[int, List[Tuple[int, QueryRequest]]] = {}
        for position, request in enumerate(requests):
            if request.op not in OPS:
                # Fail the whole batch before any shard spends build work —
                # the same early rejection the single-process service does.
                raise ServiceRequestError(
                    f"request {request.request_id!r}: unknown op {request.op!r}"
                )
            sub_batches.setdefault(self._shard_for_request(request), []).append(
                (position, request)
            )

        def run_shard(shard_id: int, members: List[Tuple[int, QueryRequest]]):
            sub_requests = [request for _, request in members]
            breaker = self._breakers[shard_id]
            if not breaker.allow():
                # Breaker open (or a probe already in flight): do not touch
                # the worker at all — serve stale-tolerant from the inline
                # fallback, flagged degraded.
                return self._serve_degraded(shard_id, sub_requests)
            with span("worker", shard=shard_id, requests=len(sub_requests)):
                try:
                    return self._call(
                        shard_id,
                        "submit",
                        sub_requests,
                        request_count=len(sub_requests),
                        breaker=breaker,
                    )
                except DeadlineExceeded:
                    # Says nothing about worker health — hand back the probe
                    # slot (no-op unless half-open) so the breaker can't wedge.
                    breaker.release_probe()
                    raise
                except ShardRetriesExhausted:
                    if breaker.state == "open":
                        # The crash loop tripped the breaker: this sub-batch
                        # still gets an answer, just a degraded one.
                        return self._serve_degraded(shard_id, sub_requests)
                    raise

        items = sorted(sub_batches.items())
        with span("route", sub_batches=len(items)):
            if len(items) == 1:
                shard_id, members = items[0]
                shard_results = [(members, run_shard(shard_id, members))]
            else:
                # The pool threads do not inherit the caller's contextvars, so
                # each dispatch carries a fresh context copy — worker spans
                # land under this route span even across the thread hop.
                futures = [
                    (
                        members,
                        self._pool.submit(
                            contextvars.copy_context().run, run_shard, shard_id, members
                        ),
                    )
                    for shard_id, members in items
                ]
                # Wait for every sub-batch before surfacing the first error, so
                # no dispatch is left running against torn-down state.
                shard_results, first_error = [], None
                for members, future in futures:
                    try:
                        shard_results.append((members, future.result()))
                    except Exception as exc:  # noqa: BLE001 — re-raised below
                        if first_error is None:
                            first_error = exc
                if first_error is not None:
                    raise first_error

        outcomes: List[Any] = [None] * len(requests)
        built = reused = 0
        for members, (sub_outcomes, sub_built, sub_reused) in shard_results:
            for (position, _), outcome in zip(members, sub_outcomes):
                outcomes[position] = outcome
            built += sub_built
            reused += sub_reused
        self._batches.inc()
        return ServiceBatchResult(
            outcomes=[outcome for outcome in outcomes if outcome is not None],
            seconds=time.perf_counter() - started,
            indexes_built=built,
            indexes_reused=reused,
        )

    def _serve_degraded(self, shard_id: int, sub_requests: List[QueryRequest]):
        """Answer one shard's sub-batch from the router's inline fallback.

        Used while the shard's breaker is open: the requests are served by
        one lazily built :class:`_InlineWorker` (no spill directory, no
        fault plan — the fallback must stay boring), one sub-batch at a
        time, and every outcome is flagged ``degraded=True`` so callers can
        tell a possibly-stale answer from a worker-fresh one.  Returns the
        same ``(outcomes, built, reused)`` tuple the worker's ``submit``
        command produces.
        """
        with self._fallback_lock:
            if self._fallback is None:
                self._fallback = _InlineWorker(
                    -1, replace(self.config, spill_root=None, fault_plan=None)
                )
            with span("degraded", shard=shard_id, requests=len(sub_requests)):
                outcomes, built, reused = self._fallback.call("submit", sub_requests)
        self._routed.inc(len(sub_requests), shard=shard_id)
        self._degraded.inc(len(sub_requests), shard=shard_id)
        span_event(
            "degraded_serve", shard=shard_id, requests=len(sub_requests)
        )
        return [replace(outcome, degraded=True) for outcome in outcomes], built, reused

    # --------------------------------------------------------------- warm-up
    def ensure_index(
        self, target: TargetSpec, kind: Optional[str] = None, *, strict: bool = True
    ) -> Tuple[IndexInfo, bool]:
        """Build (or fetch) ``target``'s index on its owning shard.

        Returns ``(info, was_cached)`` where ``info`` is an
        :class:`IndexInfo` view — the built matrix stays resident in the
        worker; only its identity crosses the pipe.
        """
        if self.closed:
            raise RuntimeError("ShardRouter is closed")
        kind, strict = _normalise_ensure(target, kind, strict)
        shard_id = self.shard_for(target, kind, strict)
        return self._call(shard_id, "ensure", (target, kind, strict), request_count=1)

    def prefetch(
        self,
        targets: Sequence[Union[TargetSpec, Tuple[TargetSpec, Optional[str]], Tuple[TargetSpec, Optional[str], bool]]],
    ) -> Dict[str, Any]:
        """Warm hot fingerprints: build each target's index on its owner.

        Accepts bare :class:`TargetSpec` items or ``(target, kind[, strict])``
        tuples; specs are grouped by owning shard and each shard warms its
        group in one command.  Returns per-shard and total warm-up counts.
        """
        if self.closed:
            raise RuntimeError("ShardRouter is closed")
        groups: Dict[int, List[Tuple[TargetSpec, str, bool]]] = {}
        for item in targets:
            if isinstance(item, TargetSpec):
                target, kind, strict = item, None, True
            elif len(item) == 2:
                (target, kind), strict = item, True
            else:
                target, kind, strict = item
            kind, strict = _normalise_ensure(target, kind, strict)
            shard_id = self.shard_for(target, kind, strict)
            groups.setdefault(shard_id, []).append((target, kind, strict))

        def run_shard(shard_id: int, specs: List[Tuple[TargetSpec, str, bool]]):
            return self._call(shard_id, "prefetch", specs, request_count=0)

        items = sorted(groups.items())
        if len(items) <= 1:
            results = [(shard_id, run_shard(shard_id, specs)) for shard_id, specs in items]
        else:
            futures = [
                (shard_id, self._pool.submit(run_shard, shard_id, specs))
                for shard_id, specs in items
            ]
            results = [(shard_id, future.result()) for shard_id, future in futures]
        per_shard = {shard_id: outcome for shard_id, outcome in results}
        return {
            "prefetched": sum(outcome["prefetched"] for outcome in per_shard.values()),
            "already_cached": sum(outcome["already_cached"] for outcome in per_shard.values()),
            "per_shard": per_shard,
        }

    # --------------------------------------------------------------- metrics
    def extra_metric_snapshots(self) -> List[Dict[str, Any]]:
        """The router's registry, then shard-stamped worker-process snapshots.

        Inline workers record into this process's global registry — their
        counts are already in the server's snapshot — so only process
        workers are polled; a worker that cannot answer is skipped rather
        than failing the scrape.
        """
        snapshots: List[Dict[str, Any]] = [self.metrics.snapshot()]
        for worker in self._workers:
            if worker.kind != "process":
                continue
            try:
                snap = self._call(worker.shard_id, "metrics", None)
            except (RuntimeError, ShardWorkerCrash, ServiceRequestError):
                continue
            snapshots.append(relabel_snapshot(snap, {"shard": str(worker.shard_id)}))
        return snapshots

    # ----------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        """Router + per-shard statistics (JSON-safe; surfaces in ``/stats``).

        Includes the top-level keys the single-process service stats carry
        (``mode``/``delta``/``backend``/``cache``), with the cache counters
        *aggregated* across shards, so artifact writers and dashboards read
        one shape regardless of sharding.  Router counts and timings are a
        view over :attr:`metrics`.
        """
        per_shard: List[Dict[str, Any]] = []
        for worker in self._workers:
            try:
                doc = self._call(worker.shard_id, "stats", None)
            except (RuntimeError, ShardWorkerCrash) as exc:
                doc = {"shard": worker.shard_id, "error": str(exc)}
            doc["worker"] = worker.kind
            per_shard.append(doc)
        # Read after the stats polls, which can restart a dead worker.
        snapshot = self.metrics.snapshot()
        count = functools.partial(snapshot_value, snapshot)
        for shard, doc in enumerate(per_shard):
            doc["requests_routed"] = count("repro_shard_requests_total", shard=shard)
            doc["sub_batches"] = count("repro_shard_sub_batches_total", shard=shard)
            doc["restarts"] = count("repro_shard_restarts_total", shard=shard)

        routed = [doc["requests_routed"] for doc in per_shard]
        total_routed = sum(routed)
        mean_routed = total_routed / len(routed) if routed else 0.0
        imbalance = (max(routed) / mean_routed) if mean_routed > 0 else 0.0

        cache_keys = (
            "entries",
            "current_bytes",
            "hits",
            "misses",
            "evictions",
            "spill_saves",
            "spill_loads",
            "oversize_spills",
        )
        cache: Dict[str, Any] = {key: 0 for key in cache_keys}
        for doc in per_shard:
            counters = doc.get("cache") or {}
            for key in cache_keys:
                cache[key] += int(counters.get(key, 0))
        cache["max_bytes"] = int(self.config.cache_bytes) * self.shards
        cache["per_shard_max_bytes"] = int(self.config.cache_bytes)
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0

        # Aggregated single-process-shaped counters, so CLI summaries and
        # artifact writers read one stats shape regardless of sharding.
        service_totals: Dict[str, Any] = {
            "queries_evaluated": 0,
            "indexes_built": 0,
            "indexes_refreshed": 0,
            "build_seconds": 0.0,
            "query_seconds": 0.0,
            "refresh_seconds": 0.0,
        }
        for doc in per_shard:
            for key in service_totals:
                service_totals[key] += doc.get(key, 0)

        resilience: Dict[str, Any] = {
            "worker_timeout_seconds": self.worker_timeout,
            "hangs": count("repro_shard_hangs_total"),
            "degraded_requests": count("repro_degraded_requests_total"),
            "breakers": {
                str(shard): self._breakers[shard].stats()
                for shard in range(self.shards)
            },
        }
        plan = active_plan()
        if plan is not None:
            resilience["fault_plan"] = plan.stats()
        return {
            "sharded": True,
            "shards": self.shards,
            "workers": self._workers[0].kind if self._workers else "none",
            "serial_fallback": self.serial_fallback,
            "ring_replicas": self.ring.replicas,
            "retry_limit": self.retry_limit,
            "mode": self.config.mode,
            "delta": self.config.delta,
            "backend": self.config.backend or "serial",
            "batches_served": count("repro_router_batches_total"),
            "requests_served": total_routed,
            **service_totals,
            "restarts": count("repro_shard_restarts_total"),
            "retries": count("repro_shard_retries_total"),
            "load": {
                "per_shard_requests": routed,
                "shards_exercised": sum(1 for count in routed if count > 0),
                "imbalance": imbalance,
            },
            "router_timings": {
                "queue_wait": snapshot_timing(snapshot, "repro_shard_queue_wait_seconds"),
                "shard_exec": snapshot_timing(snapshot, "repro_shard_exec_seconds"),
            },
            "resilience": resilience,
            "cache": cache,
            "per_shard": per_shard,
        }
