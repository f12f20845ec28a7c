"""Head+tail adaptive trace sampling for the serving tier.

Tracing every batch is fine at hundreds of QPS but unsustainable beyond
~10k: the ring buffer churns, and the interesting traces (the tail) are
evicted by a flood of boring ones.  The sampler splits the decision:

**Head sampling** happens when the trace is minted: a deterministic hash of
the trace ID against ``head_rate``.  Deterministic-by-ID means every
process that sees the same trace ID reaches the same decision — no
coordination, and a downstream shard worker can recompute the decision
locally (the same property :class:`~repro.service.sharding.ConsistentHashRing`
leans on for routing).

**Tail retention** happens when the trace *completes*: a trace that lost
the head lottery is still kept if its end-to-end latency crosses the
per-route threshold — the larger of an absolute floor
(``tail_min_seconds``) and an adaptive per-route quantile
(``tail_quantile`` over every completed duration seen for that route, once
``warmup`` observations exist).  So a p99.9 outlier is never lost to a 1%
head rate, which is the entire point of sampling by tail.

The sampler is policy only.  The :class:`~repro.obs.trace.Tracer` that
asks it counts every decision in its own registry
(``repro_traces_sampled_total{decision=...}``,
``repro_traces_dropped_total`` and the ``repro_trace_ring_occupancy``
gauge), which makes the ring buffer's behaviour itself observable.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Tuple

from .metrics import MetricsRegistry, histogram_quantile

__all__ = ["TraceSampler", "head_decision"]

#: The head decision compares the top 64 bits of SHA-256(trace_id) against
#: ``head_rate * 2**64`` — uniform, stable across processes and Python
#: versions (unlike ``hash()``, which is salted per process).
_HEAD_DENOMINATOR = float(2**64)

_ROUTE_SECONDS = "route_seconds"


def head_decision(trace_id: str, rate: float) -> bool:
    """The deterministic head-sampling verdict for one trace ID.

    Same ``(trace_id, rate)`` → same answer in every process; raising the
    rate only ever *adds* traces (the kept set at rate r is a subset of the
    kept set at any r' > r).
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    digest = hashlib.sha256(trace_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") < rate * _HEAD_DENOMINATOR


class TraceSampler:
    """Head+tail sampling policy (the tracer counts what it decides).

    Parameters
    ----------
    head_rate:
        Fraction of traces kept unconditionally (1.0 = trace-everything,
        the pre-sampler behaviour).
    tail_quantile:
        Per-route duration quantile above which a completed trace is always
        retained, once ``warmup`` durations have been seen for the route.
    tail_min_seconds:
        Absolute floor: any trace at least this slow is retained regardless
        of warmup.  ``None`` disables the floor (quantile only).
    warmup:
        Completed traces per route before the adaptive quantile threshold
        engages — a quantile over three samples is noise, not a threshold.
    """

    def __init__(
        self,
        head_rate: float = 1.0,
        *,
        tail_quantile: float = 0.99,
        tail_min_seconds: Optional[float] = None,
        warmup: int = 64,
    ) -> None:
        if not 0.0 <= head_rate <= 1.0:
            raise ValueError(f"head_rate must be in [0, 1], got {head_rate}")
        if not 0.0 < tail_quantile < 1.0:
            raise ValueError(f"tail_quantile must be in (0, 1), got {tail_quantile}")
        if tail_min_seconds is not None and tail_min_seconds < 0:
            raise ValueError(f"tail_min_seconds must be >= 0, got {tail_min_seconds}")
        if warmup < 1:
            raise ValueError(f"warmup must be positive, got {warmup}")
        self.head_rate = float(head_rate)
        self.tail_quantile = float(tail_quantile)
        self.tail_min_seconds = None if tail_min_seconds is None else float(tail_min_seconds)
        self.warmup = int(warmup)
        # Per-route durations on the 10 µs … ~84 s factor-2 grid every
        # latency histogram uses, so the threshold quantile is comparable
        # with ``repro_http_request_seconds``.  Private: never exposed.
        self._registry = MetricsRegistry()
        self._durations = self._registry.histogram(
            _ROUTE_SECONDS, "Completed trace durations by route", ("route",)
        )

    # ------------------------------------------------------------------ head
    def head_decision(self, trace_id: str) -> bool:
        return head_decision(trace_id, self.head_rate)

    # ------------------------------------------------------------------ tail
    def _threshold(self, sample: Optional[Dict[str, Any]]) -> Optional[float]:
        adaptive = None
        if sample is not None and sample["count"] >= self.warmup:
            adaptive = histogram_quantile(
                self.tail_quantile, self._durations.bounds, sample["counts"]
            )
        if self.tail_min_seconds is None:
            return adaptive
        if adaptive is None:
            return self.tail_min_seconds
        return max(self.tail_min_seconds, adaptive)

    def tail_threshold(self, route: str) -> Optional[float]:
        """The current retention threshold (seconds) for ``route``.

        The larger of the absolute floor and the adaptive quantile; ``None``
        while neither is available (no floor configured, route not warm).
        """
        return self._threshold(self._durations.sample(route=route))

    # -------------------------------------------------------------- decision
    def decide(
        self, route: str, duration: float, head_sampled: bool
    ) -> Tuple[bool, Optional[str]]:
        """Retention verdict for one completed trace: ``(keep, decision)``.

        ``decision`` is ``"head"`` or ``"tail"`` when kept, ``None`` when
        dropped.  Every completed duration feeds the route's adaptive
        threshold — dropped traces included, or the quantile would drift
        toward the retained (biased) population.  The threshold is read
        before the duration is folded in, so an outlier cannot raise the
        bar that judges it.
        """
        duration = float(duration)
        threshold = None if head_sampled else self.tail_threshold(route)
        self._durations.observe(duration, route=route)
        if head_sampled:
            return True, "head"
        if threshold is not None and duration >= threshold:
            return True, "tail"
        return False, None

    # ----------------------------------------------------------------- intro
    def config(self) -> Dict[str, Any]:
        """The policy, as served under ``/stats`` and ``/debug/traces``."""
        return {
            "head_rate": self.head_rate,
            "tail_quantile": self.tail_quantile,
            "tail_min_seconds": self.tail_min_seconds,
            "warmup": self.warmup,
        }

    def route_state(self) -> Dict[str, Dict[str, Any]]:
        """Per-route observation counts and current thresholds (debugging)."""
        return {
            dict(labels)["route"]: {
                "observed": sample["count"],
                "threshold_seconds": self._threshold(sample),
            }
            for labels, sample in self._registry.snapshot()[_ROUTE_SECONDS]["samples"]
        }
