"""Per-shard circuit breakers: closed → open → half-open → closed.

A breaker watches one worker's call outcomes.  It opens when either
``failure_threshold`` *consecutive* failures land, or a rolling window of
recent outcomes shows an error rate at or above ``error_rate_threshold``
(with at least ``min_window_calls`` observations, so two early failures
cannot trip a cold breaker).  While open, callers should not touch the
worker at all — the shard router serves the shard's keys from its inline
degraded fallback instead.  After ``cooldown_seconds`` the breaker lets
exactly one *probe* call through (half-open); a probe success closes it, a
probe failure re-opens it and restarts the cooldown.

The clock is injectable and every transition fires an ``on_transition``
callback, which the router wires to the
``repro_breaker_transitions_total`` counter, the ``repro_breaker_state``
gauge and a span event.  That counter is the one store of transition
counts: the breaker keeps none of its own, so the state machine stays
import-cycle-free of the metrics registry.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional

__all__ = ["BreakerConfig", "CircuitBreaker", "BREAKER_STATE_CODES"]

#: Numeric encoding for the per-shard state gauge on /metrics.
BREAKER_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/reclose thresholds (shared by every shard's breaker)."""

    failure_threshold: int = 5
    error_rate_threshold: float = 0.5
    window: int = 20
    min_window_calls: int = 10
    cooldown_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if not 0.0 < self.error_rate_threshold <= 1.0:
            raise ValueError(
                f"error_rate_threshold must be in (0, 1], got {self.error_rate_threshold}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.cooldown_seconds <= 0:
            raise ValueError(
                f"cooldown_seconds must be positive, got {self.cooldown_seconds}"
            )


class CircuitBreaker:
    """One worker's breaker state machine (thread-safe, injectable clock)."""

    def __init__(
        self,
        config: Optional[BreakerConfig] = None,
        *,
        name: str = "",
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str, str], None]] = None,
    ) -> None:
        self.config = config if config is not None else BreakerConfig()
        self.name = name
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._outcomes: "deque[bool]" = deque(maxlen=self.config.window)
        self._opened_at = 0.0
        self._probe_inflight = False
        self.rejected_calls = 0

    # ------------------------------------------------------------- internals
    def _transition(self, new_state: str) -> None:
        # Callers hold self._lock.
        old_state = self._state
        if old_state == new_state:
            return
        self._state = new_state
        if new_state == "open":
            self._opened_at = self._clock()
        if new_state != "half_open":
            self._probe_inflight = False
        callback = self._on_transition
        if callback is not None:
            callback(self.name, old_state, new_state)

    def _window_rate_tripped(self) -> bool:
        if len(self._outcomes) < self.config.min_window_calls:
            return False
        failures = sum(1 for ok in self._outcomes if not ok)
        return failures / len(self._outcomes) >= self.config.error_rate_threshold

    # ------------------------------------------------------------------- api
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May the caller touch the real worker right now?

        Open breakers become half-open once the cooldown elapses; a
        half-open breaker admits exactly one probe at a time.  A ``False``
        return means "serve degraded instead" and is counted.
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at >= self.config.cooldown_seconds:
                    self._transition("half_open")
                else:
                    self.rejected_calls += 1
                    return False
            # half_open: admit a single probe.
            if self._probe_inflight:
                self.rejected_calls += 1
                return False
            self._probe_inflight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._outcomes.append(True)
            if self._state == "half_open":
                self._transition("closed")
                self._outcomes.clear()

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            self._outcomes.append(False)
            if self._state == "half_open":
                # The probe failed: straight back to open, fresh cooldown.
                self._transition("open")
                return
            if self._state == "closed" and (
                self._consecutive_failures >= self.config.failure_threshold
                or self._window_rate_tripped()
            ):
                self._transition("open")

    def release_probe(self) -> None:
        """Give the probe slot back without judging the worker.

        For outcomes that say nothing about worker health — e.g. the
        *caller's* deadline expired mid-probe.  A leaked probe slot would
        otherwise wedge a half-open breaker forever.
        """
        with self._lock:
            self._probe_inflight = False

    def trip(self) -> None:
        """Force the breaker open (operational escape hatch + tests)."""
        with self._lock:
            self._transition("open")

    def reset(self) -> None:
        """Force the breaker closed and clear its failure memory."""
        with self._lock:
            self._consecutive_failures = 0
            self._outcomes.clear()
            self._transition("closed")

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "window_calls": len(self._outcomes),
                "window_failures": sum(1 for ok in self._outcomes if not ok),
                "rejected_calls": self.rejected_calls,
                "cooldown_seconds": self.config.cooldown_seconds,
            }
