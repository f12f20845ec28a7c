"""The serving layer: batched, cache-amortised query execution.

:class:`QueryService` is the front door of the subsystem.  It accepts a batch
of mixed :class:`~repro.service.requests.QueryRequest` objects and

1. **groups** them by the index they need (same target + index kind + LIS
   strictness ⇒ same fingerprint ⇒ same build),
2. **builds** each missing index exactly once — sequentially or on the MPC
   simulator with the execution backend selected at construction (the PR-2
   engine: ``serial`` / ``thread`` / ``process``) — and parks it in the
   :class:`~repro.service.cache.IndexCache`,
3. **flattens** every request of a group into half-open interval queries
   (the global length, explicit substring windows, strided sweeps and rank
   intervals are all corner evaluations of the same distribution matrix) and
   answers the whole group in **one vectorised dominance-count pass**, then
4. splits the answers back out per request, with per-request timing and
   cache attribution.

This is exactly the workload shape Theorem 1.3 / Corollary 1.3.1 build for:
one expensive (sub)unit-Monge product, unboundedly many O(batch) queries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.serialize import weighted_checksum
from ..lis.semilocal import validate_intervals
from ..streaming.recompose import extend_value_matrix
from .cache import IndexCache
from .index import (
    INDEX_KINDS,
    SemiLocalIndex,
    build_lcs_index,
    build_lis_index,
    lcs_index_fingerprint,
    lis_index_fingerprint,
)
from .requests import OPS, QueryRequest, ServiceRequestError, TargetSpec
from ..obs.metrics import get_registry
from ..obs.trace import span
from ..resilience.faults import fault_point

__all__ = ["RequestOutcome", "ServiceBatchResult", "QueryService"]

_REQUESTS = get_registry().counter(
    "repro_service_requests_total", "Requests answered by QueryService.submit"
)
_BATCHES = get_registry().counter(
    "repro_service_batches_total", "Batches answered by QueryService.submit"
)
_QUERIES = get_registry().counter(
    "repro_service_queries_total", "Interval evaluations run by the vectorised pass"
)
_BUILDS = get_registry().counter(
    "repro_index_builds_total", "Index builds by kind (cache misses that built)", ("kind",)
)
_BUILD_SECONDS = get_registry().histogram(
    "repro_index_build_seconds", "Wall-clock of index builds"
)
_QUERY_SECONDS = get_registry().histogram(
    "repro_query_pass_seconds", "Wall-clock of vectorised query passes"
)


@dataclass
class RequestOutcome:
    """The answer to one request, with serving attribution."""

    request_id: str
    op: str
    target: str
    index_kind: str
    index_fingerprint: str
    #: True when the index came from the cache (memory or spill) rather than
    #: being built for this batch.
    cache_hit: bool
    #: ``int`` for the scalar ops, ``list`` for batch windows/sweeps.
    result: Any
    #: Number of interval evaluations this request contributed.
    num_queries: int
    seconds: float
    #: True when the answer came from a degraded path (the shard router's
    #: inline fallback while the owning shard's breaker was open).  Flows
    #: verbatim into the HTTP response entry and ``/stats``.
    degraded: bool = False

    def result_summary(self) -> Dict[str, Any]:
        """Compact JSON-safe view (artifacts truncate long result arrays)."""
        if isinstance(self.result, int):
            return {"value": self.result}
        values = np.asarray(self.result, dtype=np.int64)
        if values.size == 0:
            # An empty window batch is served, not an error (e.g. a sweep
            # whose caller computed zero windows); min/max have no value.
            return {"count": 0, "min": None, "max": None, "checksum": 0}
        return {
            "count": int(values.size),
            "min": int(values.min()),
            "max": int(values.max()),
            "checksum": weighted_checksum(values),
        }


@dataclass
class ServiceBatchResult:
    """Everything one :meth:`QueryService.submit` call produced."""

    outcomes: List[RequestOutcome]
    seconds: float
    indexes_built: int
    indexes_reused: int

    def by_id(self) -> Dict[str, RequestOutcome]:
        return {outcome.request_id: outcome for outcome in self.outcomes}


class QueryService:
    """Batched semi-local query serving over an index cache.

    Parameters
    ----------
    cache:
        The :class:`IndexCache` to serve from (a private default-budget cache
        is created when omitted).  Sharing one cache across services shares
        the built indexes.
    mode:
        ``'sequential'`` (in-process seaweed recursion) or ``'mpc'`` (the
        Theorem 1.3 pipeline on the simulated cluster).
    delta, backend:
        MPC build mechanics (ignored for sequential builds): the scalability
        parameter and the execution backend (``serial``/``thread``/
        ``process``).  Backends change build wall-clock only — the built
        index, and therefore every answer, is bit-identical across them.
    """

    def __init__(
        self,
        *,
        cache: Optional[IndexCache] = None,
        mode: str = "sequential",
        delta: float = 0.5,
        backend: Optional[str] = None,
    ) -> None:
        if mode not in ("sequential", "mpc"):
            raise ValueError(f"mode must be 'sequential' or 'mpc', got {mode!r}")
        self.cache = cache if cache is not None else IndexCache()
        self.mode = mode
        self.delta = float(delta)
        self.backend = backend
        #: ``(target, kind, strict) -> fingerprint`` memo: TargetSpec fully
        #: determines the input content, so warm submits skip both the O(n)
        #: target realisation and the SHA-256 over its bytes.
        self._fingerprints: Dict[Tuple[TargetSpec, str, bool], str] = {}
        self.requests_served = 0
        self.batches_served = 0
        self.queries_evaluated = 0
        self.indexes_built = 0
        self.indexes_refreshed = 0
        self.build_seconds = 0.0
        self.query_seconds = 0.0
        self.refresh_seconds = 0.0

    # ------------------------------------------------------------------ index
    def _build_index(
        self, target: TargetSpec, kind: str, strict: bool, realised=None
    ) -> SemiLocalIndex:
        realised = target.realise() if realised is None else realised
        if kind == "lcs":
            s, t = realised
            return build_lcs_index(s, t, mode=self.mode, delta=self.delta, backend=self.backend)
        return build_lis_index(
            realised,
            kind=kind,
            strict=strict,
            mode=self.mode,
            delta=self.delta,
            backend=self.backend,
        )

    def _get_index(
        self, target: TargetSpec, kind: str, strict: bool
    ) -> Tuple[SemiLocalIndex, bool]:
        key = (target, kind, strict)
        fingerprint = self._fingerprints.get(key)
        realised = None
        if fingerprint is None:
            # First sighting: realise the target once to fingerprint it.
            # TargetSpec fully determines the content, so the memo makes every
            # later submit skip both the realisation and the hashing.
            realised = target.realise()
            if kind == "lcs":
                fingerprint = lcs_index_fingerprint(*realised)
            else:
                fingerprint = lis_index_fingerprint(realised, kind, strict)
            self._fingerprints[key] = fingerprint
        def _traced_build() -> SemiLocalIndex:
            fault_point("index.build", kind=kind)
            with span("build", kind=kind, fingerprint=fingerprint[:12]):
                return self._build_index(target, kind, strict, realised)

        index, was_cached = self.cache.get_or_build(fingerprint, _traced_build)
        if not was_cached:
            self.indexes_built += 1
            seconds = float(index.provenance.get("build_seconds", 0.0))
            self.build_seconds += seconds
            _BUILDS.inc(kind=kind)
            _BUILD_SECONDS.observe(seconds)
        return index, was_cached

    def ensure_index(
        self, target: TargetSpec, kind: Optional[str] = None, *, strict: bool = True
    ) -> Tuple[SemiLocalIndex, bool]:
        """Build (or fetch) the index for ``target``; returns ``(index, was_cached)``.

        The public warm-up entry point: background build routes call this to
        pay the build cost ahead of queries.  ``kind`` defaults to the only
        sensible kind for the target (``'lcs'`` for string pairs,
        ``'lis:position'`` for sequences).
        """
        if kind is None:
            kind = "lcs" if target.kind == "string_pair" else "lis:position"
        if kind not in INDEX_KINDS:
            raise ServiceRequestError(
                f"unknown index kind {kind!r}; expected one of {INDEX_KINDS}"
            )
        if (kind == "lcs") != (target.kind == "string_pair"):
            raise ServiceRequestError(
                f"index kind {kind!r} does not fit a {target.kind!r} target"
            )
        strict = True if kind == "lcs" else bool(strict)
        return self._get_index(target, kind, strict)

    # ----------------------------------------------------------------- refresh
    def refresh(
        self, target: TargetSpec, append, *, strict: bool = True
    ) -> Tuple[SemiLocalIndex, bool]:
        """Patch the target's cached value-interval index with new symbols.

        Instead of discarding the cached build product when the input grows,
        the old matrix becomes the left ⊡ operand: one suffix block build
        plus one multiplication yields the extended index *bit-identically*
        to a from-scratch rebuild
        (:func:`repro.streaming.recompose.extend_value_matrix`).  The patched
        index is re-fingerprinted over the extended sequence and re-inserted
        into the cache, so follow-up queries against the extended target
        (inline, ``float64``-canonical) hit it directly.

        Returns ``(patched_index, old_was_cached)``.
        """
        if target.kind != "sequence":
            raise ServiceRequestError("refresh needs a sequence target")
        append = np.asarray(append, dtype=np.float64).ravel()
        if append.size == 0:
            raise ServiceRequestError("refresh needs at least one appended symbol")
        index, was_cached = self._get_index(target, "lis:value", strict)
        old_values = np.asarray(target.realise(), dtype=np.float64)
        extended = np.concatenate([old_values, append])
        fingerprint = lis_index_fingerprint(extended, "lis:value", strict)
        started = time.perf_counter()
        patched = extend_value_matrix(index.semilocal, old_values, append, strict=strict)
        seconds = time.perf_counter() - started
        refreshed = SemiLocalIndex(
            fingerprint=fingerprint,
            kind="lis:value",
            semilocal=patched,
            length=len(extended),
            provenance={
                "mode": "refresh",
                "refreshed_from": index.fingerprint,
                "appended": int(append.size),
                "build_seconds": float(seconds),
            },
        )
        self.cache.put(refreshed)
        self.indexes_refreshed += 1
        self.refresh_seconds += seconds
        return refreshed, was_cached

    # -------------------------------------------------------------- intervals
    @staticmethod
    def _intervals_for(
        request: QueryRequest, index: SemiLocalIndex
    ) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Flatten one request into ``(lo, hi, scalar_result)`` interval arrays."""
        what = f"request {request.request_id!r} ({request.op})"
        try:
            if request.op in ("lis_length", "lcs_length"):
                return (
                    np.zeros(1, dtype=np.int64),
                    np.full(1, index.length, dtype=np.int64),
                    True,
                )
            if request.op == "substring_query":
                scalar = np.ndim(request.i) == 0 and np.ndim(request.j) == 0
                lo, hi = validate_intervals(
                    request.i, request.j, index.length, what="substring window"
                )
                return lo, hi, scalar
            if request.op == "rank_interval_query":
                scalar = np.ndim(request.x) == 0 and np.ndim(request.y) == 0
                lo, hi = validate_intervals(
                    request.x, request.y, index.length, what="rank interval"
                )
                return lo, hi, scalar
            if request.op == "window_sweep":
                starts, ends = index.sweep_intervals(request.width, request.step)
                return starts, ends, False
        except ValueError as exc:
            raise ServiceRequestError(f"{what}: {exc}") from None
        raise ServiceRequestError(f"{what}: unsupported op")

    # ----------------------------------------------------------------- submit
    def submit(self, requests: Sequence[QueryRequest]) -> ServiceBatchResult:
        """Answer a batch of mixed requests (see the module docstring).

        Unknown ops fail the batch before any build work is spent; window
        bounds are validated against each group's index (they need its
        length), so a bounds error in one group can surface after another
        group's build already ran.  Either way the whole batch fails with a
        :class:`ServiceRequestError` naming the offending request.
        """
        requests = list(requests)
        started = time.perf_counter()
        queries_before = self.queries_evaluated
        # Group by required index identity, preserving first-seen order.
        # Refresh requests mutate the cache, so they execute individually (in
        # batch order) rather than joining a query group.
        groups: Dict[Tuple[TargetSpec, str, bool], List[Tuple[int, QueryRequest]]] = {}
        refreshes: List[Tuple[int, QueryRequest]] = []
        for position, request in enumerate(requests):
            if request.op not in OPS:
                raise ServiceRequestError(
                    f"request {request.request_id!r}: unknown op {request.op!r}"
                )
            kind = request.index_kind()
            strict = bool(request.strict) if kind != "lcs" else True
            if request.op == "refresh":
                refreshes.append((position, request))
                continue
            groups.setdefault((request.target, kind, strict), []).append((position, request))

        outcomes: List[Optional[RequestOutcome]] = [None] * len(requests)
        built = reused = 0
        for position, request in refreshes:
            refresh_started = time.perf_counter()
            refreshed, was_cached = self.refresh(
                request.target, request.append, strict=bool(request.strict)
            )
            built += 0 if was_cached else 1
            reused += 1 if was_cached else 0
            self.queries_evaluated += 1
            outcomes[position] = RequestOutcome(
                request_id=request.request_id,
                op=request.op,
                target=request.target.describe(),
                index_kind="lis:value",
                index_fingerprint=refreshed.fingerprint,
                cache_hit=was_cached,
                result=int(refreshed.full_length()),
                num_queries=1,
                seconds=time.perf_counter() - refresh_started,
            )
        for (target, kind, strict), members in groups.items():
            index, was_cached = self._get_index(target, kind, strict)
            built += 0 if was_cached else 1
            reused += 1 if was_cached else 0

            flat = [(pos, req) + self._intervals_for(req, index) for pos, req in members]
            lo_cat = np.concatenate([lo for _, _, lo, _, _ in flat])
            hi_cat = np.concatenate([hi for _, _, _, hi, _ in flat])
            query_started = time.perf_counter()
            with span("query", kind=kind, intervals=int(lo_cat.size)):
                if kind == "lis:value":
                    answers = index.query_rank_intervals(lo_cat, hi_cat)
                else:
                    answers = index.query_substrings(lo_cat, hi_cat)
            group_seconds = time.perf_counter() - query_started
            self.query_seconds += group_seconds
            self.queries_evaluated += int(lo_cat.size)
            _QUERY_SECONDS.observe(group_seconds)

            offset = 0
            for pos, request, lo, _, scalar in flat:
                count = int(lo.size)
                values = answers[offset : offset + count]
                offset += count
                outcomes[pos] = RequestOutcome(
                    request_id=request.request_id,
                    op=request.op,
                    target=target.describe(),
                    index_kind=kind,
                    index_fingerprint=index.fingerprint,
                    cache_hit=was_cached,
                    result=int(values[0]) if scalar else values.tolist(),
                    num_queries=count,
                    seconds=group_seconds * (count / max(1, lo_cat.size)),
                )

        self.requests_served += len(requests)
        self.batches_served += 1
        _REQUESTS.inc(len(requests))
        _BATCHES.inc()
        _QUERIES.inc(self.queries_evaluated - queries_before)
        return ServiceBatchResult(
            outcomes=[outcome for outcome in outcomes if outcome is not None],
            seconds=time.perf_counter() - started,
            indexes_built=built,
            indexes_reused=reused,
        )

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, Any]:
        """Cumulative service statistics plus the cache counters (JSON-safe)."""
        return {
            "mode": self.mode,
            "delta": self.delta,
            "backend": self.backend or "serial",
            "batches_served": self.batches_served,
            "requests_served": self.requests_served,
            "queries_evaluated": self.queries_evaluated,
            "indexes_built": self.indexes_built,
            "indexes_refreshed": self.indexes_refreshed,
            "build_seconds": self.build_seconds,
            "query_seconds": self.query_seconds,
            "refresh_seconds": self.refresh_seconds,
            "cache": self.cache.counters(),
        }
