"""repro.obs — the stdlib-only observability layer.

Five cooperating pieces, threaded through every serving layer:

* :mod:`repro.obs.metrics` — a process-local, thread-safe registry of
  counters, gauges and fixed-log-bucket histograms with Prometheus text
  exposition.  Registries never talk across processes themselves; instead
  each process snapshots its own registry (a plain picklable dict) and the
  :class:`~repro.service.sharding.ShardRouter` merges worker snapshots over
  the existing pipe protocol.
* :mod:`repro.obs.trace` — span-based per-request tracing: trace IDs minted
  at the HTTP edge, propagated through coalescing, routing and index builds
  via a :mod:`contextvars` context, collected into a bounded ring buffer and
  exportable as Chrome trace-event JSON; spans carry timestamped *events*
  (cache spill/load, shard restart, coalesce merge).
* :mod:`repro.obs.sampling` — the head+tail adaptive trace sampler:
  deterministic hash-based head sampling plus per-route tail-latency
  retention; the tracer counts every decision in its own registry.
* :mod:`repro.obs.slo` — declarative SLOs (availability,
  latency-under-threshold) evaluated from registry snapshots with
  multi-window burn rates (Google SRE workbook style); the window history
  optionally persists to a JSONL file so burn rates survive restarts.
* :mod:`repro.obs.report` — ``python -m repro report``: renders scaling
  curves, cache hit-rate tables and perf-over-commits trend tables from
  recorded ``results/*.json`` artifacts as ASCII, plus the ``--slo``
  burn-rate section.

``metrics``, ``sampling`` and ``trace`` import nothing from outside
``obs`` so the innermost layers (``core.seaweed``, ``service.cache``) can
instrument themselves without import cycles; ``sampling`` and ``slo``
build on ``metrics`` only, ``trace`` on ``metrics`` and ``sampling``;
``report`` is imported lazily by the CLI.
"""

from . import metrics, sampling, slo, trace
from .metrics import MetricsRegistry, get_registry
from .sampling import TraceSampler
from .slo import SLOEngine, SLObjective
from .trace import Tracer, current_trace_id, span, span_event

__all__ = [
    "metrics",
    "sampling",
    "slo",
    "trace",
    "MetricsRegistry",
    "get_registry",
    "TraceSampler",
    "SLOEngine",
    "SLObjective",
    "Tracer",
    "current_trace_id",
    "span",
    "span_event",
]
