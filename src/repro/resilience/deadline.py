"""Deadline budgets propagated through the serving path.

A :class:`Deadline` is an absolute expiry on a monotonic clock, created at
the HTTP edge from the ``X-Repro-Deadline-Ms`` header (or the server's
``--default-deadline-ms``) and carried through coalescing, the shard
router and the worker pipe wait via a :mod:`contextvars` scope — the same
propagation channel the tracer uses, so the budget survives the executor
thread hops (:meth:`repro.server.core.ServerCore._in_service_thread` and
the router's dispatch pool both ship context copies).

Each layer *reads the remaining budget* rather than receiving a decremented
copy: the edge checks it before admitting work, the coalescer bounds its
wait on the pending pass, the router refuses to dispatch (or retry) past
it, and the worker pipe polls with at most the remaining budget.
Expiry surfaces as :class:`DeadlineExceeded` and is counted per stage on
``repro_deadline_expired_total`` so ``/metrics`` shows *where* budgets die.
"""

from __future__ import annotations

import contextlib
import math
import time
from contextvars import ContextVar
from typing import Callable, Iterator, Optional

from ..obs.metrics import get_registry
from ..obs.trace import span_event

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "current_deadline",
    "deadline_scope",
    "note_expiry",
]

_EXPIRED = get_registry().counter(
    "repro_deadline_expired_total",
    "Deadline budget expiries by pipeline stage",
    ("stage",),
)


class DeadlineExceeded(RuntimeError):
    """A request's deadline budget ran out before its answer was ready."""

    def __init__(self, message: str, stage: str = "unknown") -> None:
        super().__init__(message)
        self.stage = stage


class Deadline:
    """An absolute expiry on an injectable monotonic clock.

    ``budget_ms`` is what crossed the wire; it is kept for error messages
    and response annotations.  All comparisons use ``clock()`` so tests pin
    the math without sleeping.
    """

    __slots__ = ("expires_at", "budget_ms", "_clock")

    def __init__(
        self,
        expires_at: float,
        *,
        budget_ms: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.expires_at = float(expires_at)
        self.budget_ms = budget_ms
        self._clock = clock

    @classmethod
    def after_ms(
        cls, budget_ms: float, *, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline ``budget_ms`` from now.

        Every budget source (header, document, server default) goes through
        this one check: ``ValueError`` unless ``0 < budget_ms < inf``, so
        NaN and infinity are refused, and ``TypeError`` for a non-number.
        """
        budget_ms = float(budget_ms)
        if not 0.0 < budget_ms < math.inf:
            raise ValueError(
                f"deadline budget must be a positive, finite number of "
                f"milliseconds, got {budget_ms}"
            )
        return cls(clock() + budget_ms / 1000.0, budget_ms=budget_ms, clock=clock)

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self.expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return self._clock() >= self.expires_at

    def tighten_ms(self, budget_ms: float) -> "Deadline":
        """The stricter of this deadline and a fresh ``budget_ms`` one."""
        other = Deadline.after_ms(budget_ms, clock=self._clock)
        return other if other.expires_at < self.expires_at else self

    def describe(self) -> str:
        if self.budget_ms is not None:
            return f"{self.budget_ms:.0f}ms budget ({self.remaining() * 1000:.0f}ms left)"
        return f"{self.remaining() * 1000:.0f}ms left"


_CURRENT: "ContextVar[Optional[Deadline]]" = ContextVar("repro_deadline", default=None)


def current_deadline() -> Optional[Deadline]:
    """The deadline governing the current context (``None`` = unbounded)."""
    return _CURRENT.get()


@contextlib.contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Install ``deadline`` for the duration of the block (``None`` is a no-op)."""
    if deadline is None:
        yield None
        return
    token = _CURRENT.set(deadline)
    try:
        yield deadline
    finally:
        _CURRENT.reset(token)


def note_expiry(stage: str, count: int = 1, **attrs) -> None:
    """Count one (or ``count``) deadline expiries at ``stage`` + span event."""
    _EXPIRED.inc(count, stage=stage)
    span_event("deadline_expired", stage=stage, count=count, **attrs)
