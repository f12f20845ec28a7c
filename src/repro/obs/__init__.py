"""repro.obs — the stdlib-only observability layer.

Three cooperating pieces, threaded through every serving layer:

* :mod:`repro.obs.metrics` — a process-local, thread-safe registry of
  counters, gauges and fixed-log-bucket histograms with Prometheus text
  exposition.  Registries never talk across processes themselves; instead
  each process snapshots its own registry (a plain picklable dict) and the
  :class:`~repro.service.sharding.ShardRouter` merges worker snapshots over
  the existing pipe protocol.
* :mod:`repro.obs.trace` — span-based per-request tracing: trace IDs minted
  at the HTTP edge, propagated through coalescing, routing and index builds
  via a :mod:`contextvars` context, collected into a bounded ring buffer
  that keeps every completed trace until newer ones push it out, and
  exportable as Chrome trace-event JSON; spans carry timestamped *events*
  (cache spill/load, shard restart, coalesce merge).
* :mod:`repro.obs.report` — ``python -m repro report``: renders scaling
  curves, cache hit-rate tables and perf-over-commits trend tables from
  recorded ``results/*.json`` artifacts as ASCII.

``metrics`` and ``trace`` import nothing from outside ``obs`` so the
innermost layers (``core.seaweed``, ``service.cache``) can instrument
themselves without import cycles; ``trace`` builds on ``metrics`` only;
``report`` is imported lazily by the CLI.
"""

from . import metrics, trace
from .metrics import MetricsRegistry, get_registry
from .trace import Tracer, current_trace_id, span, span_event

__all__ = [
    "metrics",
    "trace",
    "MetricsRegistry",
    "get_registry",
    "Tracer",
    "current_trace_id",
    "span",
    "span_event",
]
