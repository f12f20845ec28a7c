"""Perf-over-commits trend rows (``results/perf_trend.jsonl``).

``repro perf --record-trend`` appends one JSON line per run so the BENCH
trajectory becomes plottable: each row carries the commit, a timestamp, and
the *normalized* (CPU-calibrated) per-case timings from the perf document —
normalized so rows recorded on different hosts stay comparable, the same
reason the regression gate compares normalized values.

``repro report`` renders these rows as the perf-over-commits table, and
smoke.sh validates the file with :func:`load_trend`.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Any, Dict, List, Optional

__all__ = ["TREND_SCHEMA_ID", "current_commit", "trend_row", "record_trend", "load_trend"]

TREND_SCHEMA_ID = "repro.perf.trend"
TREND_SCHEMA_VERSION = 1


def current_commit(cwd: Optional[str] = None) -> str:
    """The short git commit hash, or ``"unknown"`` outside a repo.

    ``-dirty`` is appended when a tracked file differs from that commit, so
    a row recorded before its change is committed is not filed under the
    parent as if it measured the parent.
    """
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True, timeout=10, check=False
        )

    try:
        head = git("rev-parse", "--short", "HEAD")
        if head.returncode != 0 or not head.stdout.strip():
            return "unknown"
        dirty = git("diff", "--quiet", "HEAD", "--").returncode == 1
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = head.stdout.strip()
    return f"{commit}-dirty" if dirty else commit


def trend_row(document: Dict[str, Any], *, commit: Optional[str] = None) -> Dict[str, Any]:
    """One trend row distilled from a ``run_perf`` schema-v1 document."""
    perf = document.get("perf", {})
    normalized = {}
    for point in document.get("points", []):
        case = point.get("params", {}).get("case")
        value = point.get("metrics", {}).get("normalized")
        if case is not None and isinstance(value, (int, float)):
            normalized[str(case)] = float(value)
    return {
        "schema": TREND_SCHEMA_ID,
        "schema_version": TREND_SCHEMA_VERSION,
        "commit": commit if commit is not None else current_commit(),
        "timestamp": time.time(),
        "package_version": document.get("package_version"),
        "quick": bool(document.get("quick", False)),
        "calibration_seconds": perf.get("calibration_seconds"),
        "multiply_speedup_vs_reference": perf.get("multiply_speedup_vs_reference"),
        "normalized": normalized,
    }


def record_trend(
    document: Dict[str, Any],
    path: str = os.path.join("results", "perf_trend.jsonl"),
    *,
    commit: Optional[str] = None,
) -> Dict[str, Any]:
    """Append a trend row for ``document`` to ``path``; returns the row."""
    row = trend_row(document, commit=commit)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    return row


def load_trend(path: str, *, strict: bool = True) -> List[Dict[str, Any]]:
    """Parse + validate a trend file; raises ``ValueError`` on bad rows.

    With ``strict=False``, malformed rows are dropped instead (the report
    tool still renders whatever it can).
    """
    rows: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                _validate_row(row)
            except (json.JSONDecodeError, ValueError) as exc:
                if strict:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
                continue
            rows.append(row)
    return rows


def _validate_row(row: Any) -> None:
    if not isinstance(row, dict):
        raise ValueError("trend row must be a JSON object")
    if row.get("schema") != TREND_SCHEMA_ID:
        raise ValueError(f"bad schema id {row.get('schema')!r}")
    if not isinstance(row.get("schema_version"), int):
        raise ValueError("missing integer schema_version")
    if row["schema_version"] > TREND_SCHEMA_VERSION:
        raise ValueError(f"schema_version {row['schema_version']} is newer than understood")
    for field, kind in (("commit", str), ("timestamp", (int, float)), ("normalized", dict)):
        if not isinstance(row.get(field), kind):
            raise ValueError(f"field {field!r} missing or wrong type")
    for case, value in row["normalized"].items():
        if not isinstance(value, (int, float)):
            raise ValueError(f"normalized[{case!r}] is not a number")
