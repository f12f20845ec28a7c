"""Policy-driven resilience for the serving path.

Three small, injectable-clock primitives the serving stack composes:

- :mod:`~repro.resilience.deadline` — request budgets propagated edge →
  coalesce → router → worker pipe via a contextvar scope; expiry is a
  structured 504 at the edge and a counted, traced event everywhere.
- :mod:`~repro.resilience.breaker` — per-shard circuit breakers
  (closed → open → half-open) gating worker dispatch; open shards serve
  from the router's inline degraded fallback.
- :mod:`~repro.resilience.faults` — seeded, JSON-configurable fault
  injection at named sites, so every path above is exercised
  deterministically in CI (chaos tests + the smoke chaos cycle).
"""

from .breaker import BREAKER_STATE_CODES, BreakerConfig, CircuitBreaker
from .deadline import (
    Deadline,
    DeadlineExceeded,
    current_deadline,
    deadline_scope,
    note_expiry,
)
from .faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_plan,
    fault_point,
    install_plan,
    plan_from_spec,
    uninstall_plan,
)

__all__ = [
    "BREAKER_STATE_CODES",
    "BreakerConfig",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_plan",
    "current_deadline",
    "deadline_scope",
    "fault_point",
    "install_plan",
    "note_expiry",
    "plan_from_spec",
    "uninstall_plan",
]
