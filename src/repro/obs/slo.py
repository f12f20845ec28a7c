"""Declarative SLOs with multi-window burn-rate evaluation.

An :class:`SLObjective` states what "healthy" means in one of two shapes:

``availability``
    A target fraction of HTTP requests that must not fail server-side
    (status < 500), read from ``repro_http_requests_total``.
``latency``
    A target fraction of requests that must finish under a threshold
    (e.g. 99% under 250 ms), read from ``repro_http_request_seconds``
    bucket counts.  The threshold snaps to the histogram's bucket grid:
    "good" counts every bucket whose upper bound is <= the threshold, so
    the measurement is conservative by at most one bucket width.

Both read the *same merged registry snapshot* that ``/metrics`` renders
and ``/stats`` reconciles with — the SLO engine never keeps a parallel
count that could drift.

Burn rate is error budget spend speed: ``error_ratio / (1 - target)``.
A burn rate of 1 spends exactly the budget over the SLO period; 14.4
spends 2% of a 30-day budget in one hour.  Following the Google SRE
workbook's multi-window multi-burn-rate alerts, the engine evaluates a
fast pair (5m and 1h, page at >= 14.4x) and a slow pair (6h and 3d,
ticket at >= 1x); both windows of a pair must burn to alert, so a single
spike cannot page and a slow leak cannot hide.  (The workbook pairs 6h
with 30m; here the slow pair is 6h/3d — the windows this engine keeps.)

The engine is fed cumulative totals at evaluation time and keeps a ring
of ``(timestamp, totals)`` points, so a window's burn rate is the delta
between now and the oldest point inside the window.  A server younger
than the window honestly reports the smaller ``coverage_seconds`` it
actually evaluated.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "SLObjective",
    "SLOEngine",
    "SLO_SCHEMA_ID",
    "default_objectives",
]

SLO_SCHEMA_ID = "repro.server.slo"
SLO_SCHEMA_VERSION = 1

#: (name, seconds) in evaluation order: the fast pair then the slow pair.
WINDOWS: Tuple[Tuple[str, float], ...] = (
    ("5m", 300.0),
    ("1h", 3600.0),
    ("6h", 21600.0),
    ("3d", 259200.0),
)

#: Page when both fast windows burn >= 14.4x (2% of a 30d budget per hour).
FAST_BURN_THRESHOLD = 14.4
#: Ticket when both slow windows burn >= 1x (on pace to spend the budget).
SLOW_BURN_THRESHOLD = 1.0


@dataclass(frozen=True)
class SLObjective:
    """One declarative objective evaluated against registry snapshots."""

    name: str
    kind: str  # "availability" | "latency"
    target: float  # good fraction, e.g. 0.999
    route: Optional[str] = None  # None = every route
    threshold_seconds: Optional[float] = None  # latency kind only

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency"):
            raise ValueError(f"objective kind must be availability|latency, got {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"objective target must be in (0, 1), got {self.target}")
        if self.kind == "latency" and (
            self.threshold_seconds is None or self.threshold_seconds <= 0
        ):
            raise ValueError(
                f"latency objective {self.name!r} needs a positive threshold_seconds"
            )

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "route": self.route,
            "threshold_seconds": self.threshold_seconds,
        }


def default_objectives() -> List[SLObjective]:
    """The serving tier's out-of-the-box objectives."""
    return [
        SLObjective(
            name="batch-availability-99.9",
            kind="availability",
            target=0.999,
            route="/v2/batch",
        ),
        SLObjective(
            name="batch-p99-under-250ms",
            kind="latency",
            target=0.99,
            route="/v2/batch",
            threshold_seconds=0.25,
        ),
    ]


# ----------------------------------------------------------- measurement
def _objective_totals(objective: SLObjective, snapshot: Mapping[str, Any]) -> Tuple[float, float]:
    """Cumulative ``(good, total)`` for one objective from a merged snapshot."""
    good = total = 0.0
    if objective.kind == "availability":
        entry = snapshot.get("repro_http_requests_total")
        for labels_kv, value in (entry or {}).get("samples", []):
            labels = {str(k): str(v) for k, v in labels_kv}
            if objective.route is not None and labels.get("route") != objective.route:
                continue
            total += float(value)
            try:
                status = int(labels.get("status", "0"))
            except ValueError:
                status = 0
            if status < 500:
                good += float(value)
        return good, total
    entry = snapshot.get("repro_http_request_seconds")
    if not entry:
        return 0.0, 0.0
    bounds = [float(b) for b in entry.get("bounds", [])]
    threshold = float(objective.threshold_seconds) * (1.0 + 1e-9)
    for labels_kv, value in entry.get("samples", []):
        labels = {str(k): str(v) for k, v in labels_kv}
        if objective.route is not None and labels.get("route") != objective.route:
            continue
        counts = value["counts"]
        total += float(value["count"])
        good += float(
            sum(count for bound, count in zip(bounds, counts) if bound <= threshold)
        )
    return good, total


class SLOEngine:
    """Evaluates objectives from registry snapshots with windowed burn rates.

    ``clock`` is injectable so the multi-window math is unit-testable
    without real hours passing.
    """

    def __init__(
        self,
        objectives: Optional[Sequence[SLObjective]] = None,
        *,
        clock: Callable[[], float] = time.time,
        max_points: int = 4096,
        history_path: Optional[str] = None,
    ) -> None:
        self.objectives = list(objectives) if objectives is not None else default_objectives()
        if not self.objectives:
            raise ValueError("SLOEngine needs at least one objective")
        self._clock = clock
        self._lock = threading.Lock()
        #: (timestamp, {objective_name: (good, total)}) — cumulative totals.
        self._history: "deque[Tuple[float, Dict[str, Tuple[float, float]]]]" = deque(
            maxlen=max_points
        )
        #: Restart continuity: the last persisted cumulative totals.  The
        #: registry counters reset to zero with the process, so every fresh
        #: total is shifted by these offsets — the persisted series stays
        #: monotone across restarts and windowed deltas never go negative.
        self._offsets: Dict[str, Tuple[float, float]] = {}
        self.history_path = history_path
        self._persisted_rows = 0
        if history_path is not None:
            self._load_history(history_path)

    # ----------------------------------------------------------- persistence
    def _load_history(self, path: str) -> None:
        """Reload persisted ``(ts, totals)`` points and set restart offsets.

        Rows outside the widest window are dropped; unparsable lines (a torn
        final append from a crash) are skipped rather than failing startup.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return
        horizon = self._clock() - WINDOWS[-1][1] - 60.0
        points: List[Tuple[float, Dict[str, Tuple[float, float]]]] = []
        last_totals: Optional[Dict[str, Tuple[float, float]]] = None
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                ts = float(row["ts"])
                totals = {
                    str(name): (float(pair[0]), float(pair[1]))
                    for name, pair in row["totals"].items()
                }
            except (KeyError, TypeError, ValueError, IndexError, json.JSONDecodeError):
                continue
            last_totals = totals
            if ts >= horizon:
                points.append((ts, totals))
        with self._lock:
            self._history.extend(points)
            self._persisted_rows = len(points)
        if last_totals is not None:
            self._offsets = dict(last_totals)

    def _persist(self, now: float, totals: Dict[str, Tuple[float, float]]) -> None:
        # Callers hold self._lock.  Append one JSONL row; when the file has
        # accumulated well past the in-memory ring, compact it down to the
        # pruned history so it cannot grow without bound.
        if self.history_path is None:
            return
        row = json.dumps(
            {"ts": now, "totals": {name: list(pair) for name, pair in totals.items()}}
        )
        try:
            maxlen = self._history.maxlen or 4096
            if self._persisted_rows >= 2 * maxlen:
                tmp_path = f"{self.history_path}.{os.getpid()}.tmp"
                with open(tmp_path, "w", encoding="utf-8") as handle:
                    for ts, point in self._history:
                        handle.write(
                            json.dumps(
                                {
                                    "ts": ts,
                                    "totals": {
                                        name: list(pair) for name, pair in point.items()
                                    },
                                }
                            )
                            + "\n"
                        )
                os.replace(tmp_path, self.history_path)
                self._persisted_rows = len(self._history)
            else:
                with open(self.history_path, "a", encoding="utf-8") as handle:
                    handle.write(row + "\n")
                self._persisted_rows += 1
        except OSError:
            # Persistence is best-effort: a full disk must not take down
            # request serving or in-memory burn-rate evaluation.
            pass

    # ------------------------------------------------------------- recording
    def record(self, snapshot: Mapping[str, Any], now: Optional[float] = None) -> None:
        """Fold one snapshot's cumulative totals into the window history."""
        now = self._clock() if now is None else float(now)
        totals: Dict[str, Tuple[float, float]] = {}
        for objective in self.objectives:
            good, total = _objective_totals(objective, snapshot)
            offset = self._offsets.get(objective.name)
            if offset is not None:
                good, total = good + offset[0], total + offset[1]
            totals[objective.name] = (good, total)
        horizon = now - WINDOWS[-1][1] - 60.0
        with self._lock:
            self._history.append((now, totals))
            while self._history and self._history[0][0] < horizon:
                self._history.popleft()
            self._persist(now, totals)

    def totals_summary(self, snapshot: Mapping[str, Any]) -> Dict[str, Any]:
        """Point-in-time cumulative totals per objective (``/stats`` view)."""
        out: Dict[str, Any] = {}
        for objective in self.objectives:
            good, total = _objective_totals(objective, snapshot)
            offset = self._offsets.get(objective.name)
            if offset is not None:
                good, total = good + offset[0], total + offset[1]
            out[objective.name] = {
                "kind": objective.kind,
                "target": objective.target,
                "good": good,
                "total": total,
            }
        return out

    # ------------------------------------------------------------ evaluation
    def evaluate(self, snapshot: Mapping[str, Any], now: Optional[float] = None) -> Dict[str, Any]:
        """Record ``snapshot`` and return the full burn-rate document."""
        now = self._clock() if now is None else float(now)
        self.record(snapshot, now)
        with self._lock:
            history = list(self._history)
        results = []
        for objective in self.objectives:
            current = history[-1][1][objective.name]
            windows: Dict[str, Any] = {}
            for window_name, window_seconds in WINDOWS:
                baseline, coverage = self._baseline(history, now, window_seconds, objective.name)
                delta_good = current[0] - baseline[0]
                delta_total = current[1] - baseline[1]
                error_ratio = (
                    1.0 - (delta_good / delta_total) if delta_total > 0 else 0.0
                )
                budget = 1.0 - objective.target
                windows[window_name] = {
                    "seconds": window_seconds,
                    "coverage_seconds": coverage,
                    "good": delta_good,
                    "total": delta_total,
                    "error_ratio": error_ratio,
                    "burn_rate": error_ratio / budget if budget > 0 else 0.0,
                }
            fast_page = (
                windows["5m"]["burn_rate"] >= FAST_BURN_THRESHOLD
                and windows["1h"]["burn_rate"] >= FAST_BURN_THRESHOLD
            )
            slow_ticket = (
                windows["6h"]["burn_rate"] >= SLOW_BURN_THRESHOLD
                and windows["3d"]["burn_rate"] >= SLOW_BURN_THRESHOLD
            )
            results.append(
                {
                    **objective.describe(),
                    "totals": {"good": current[0], "total": current[1]},
                    "windows": windows,
                    "alerts": {
                        "fast_page": fast_page,
                        "slow_ticket": slow_ticket,
                        "severity": "page" if fast_page else ("ticket" if slow_ticket else "ok"),
                    },
                }
            )
        return {
            "schema": SLO_SCHEMA_ID,
            "version": SLO_SCHEMA_VERSION,
            "now_unix": now,
            "thresholds": {
                "fast_burn": FAST_BURN_THRESHOLD,
                "slow_burn": SLOW_BURN_THRESHOLD,
                "fast_windows": ["5m", "1h"],
                "slow_windows": ["6h", "3d"],
            },
            "objectives": results,
        }

    @staticmethod
    def _baseline(
        history: List[Tuple[float, Dict[str, Tuple[float, float]]]],
        now: float,
        window_seconds: float,
        name: str,
    ) -> Tuple[Tuple[float, float], float]:
        """The ``(good, total)`` totals at the window's trailing edge.

        Picks the newest history point at or before ``now - window``; when
        the server is younger than the window, falls back to zero totals
        (everything since start) and reports the smaller actual coverage.
        """
        edge = now - window_seconds
        chosen: Optional[Tuple[float, Dict[str, Tuple[float, float]]]] = None
        for point in history:
            if point[0] <= edge:
                chosen = point
            else:
                break
        if chosen is not None:
            return chosen[1][name], now - chosen[0]
        coverage = min(window_seconds, max(0.0, now - history[0][0])) if history else 0.0
        return (0.0, 0.0), coverage
