"""``python -m repro report`` — turn recorded artifacts into readable output.

Loads any set of schema-v1 documents from ``results/``, renders per-experiment
views (scaling curves, cache hit-rate tables, perf bars) and
the perf-over-commits trend table from ``results/perf_trend.jsonl``.

Everything renders in ASCII with zero third-party dependencies.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "load_documents",
    "render_document",
    "render_report",
    "render_trend_table",
    "ascii_bar",
    "format_table",
]

_BAR_WIDTH = 36


# ----------------------------------------------------------------- loading
def load_documents(paths: Sequence[str]) -> List[Tuple[str, Dict[str, Any]]]:
    """Load and validate schema-v1 artifacts; skip non-artifacts with a note."""
    from ..experiments.artifacts import ArtifactError, load_artifact

    docs: List[Tuple[str, Dict[str, Any]]] = []
    for path in paths:
        try:
            docs.append((path, load_artifact(path)))
        except (ArtifactError, json.JSONDecodeError, OSError) as exc:
            docs.append((path, {"_load_error": f"{type(exc).__name__}: {exc}"}))
    return docs


# ------------------------------------------------------------ ASCII pieces
def ascii_bar(value: float, maximum: float, width: int = _BAR_WIDTH) -> str:
    if maximum <= 0 or value <= 0:
        return ""
    filled = max(1, round(width * min(value, maximum) / maximum))
    return "#" * filled


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    cells = [[str(h) for h in headers]] + [[_cell(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(col.ljust(widths[i]) for i, col in enumerate(row)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(widths))))
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3g}"
        return f"{value:.3g}"
    return str(value)


def _header(text: str) -> str:
    return f"{text}\n{'=' * len(text)}"


# ------------------------------------------------------- per-experiment views
def _render_generic(doc: Dict[str, Any]) -> str:
    rows = []
    for point in doc.get("points", [])[:20]:
        params = ", ".join(f"{k}={v}" for k, v in sorted(point.get("params", {}).items()))
        metrics = point.get("metrics", {})
        shown = {k: v for k, v in metrics.items() if isinstance(v, (int, float))}
        metric_text = ", ".join(f"{k}={_cell(v)}" for k, v in sorted(shown.items())[:6])
        rows.append([params or "-", metric_text])
    return format_table(["params", "metrics"], rows) if rows else "(no points)"


def _render_shard_scaling(doc: Dict[str, Any]) -> str:
    points = doc.get("points", [])
    qps_values = [float(p["metrics"].get("qps", 0)) for p in points]
    peak = max(qps_values or [0.0])
    rows = []
    for point in points:
        metrics = point.get("metrics", {})
        shards = point.get("params", {}).get("shards", "?")
        qps = float(metrics.get("qps", 0))
        rows.append([
            shards,
            qps,
            metrics.get("p50_ms", ""),
            metrics.get("p99_ms", ""),
            metrics.get("cache_hit_rate", ""),
            metrics.get("imbalance", ""),
            ascii_bar(qps, peak),
        ])
    table = format_table(["shards", "qps", "p50_ms", "p99_ms", "hit_rate", "imbalance", "scaling"], rows)
    note = points[0]["metrics"].get("note", "") if points else ""
    return table + (f"\nnote: {note}" if note else "")


def _render_service_throughput(doc: Dict[str, Any]) -> str:
    rows = []
    for point in doc.get("points", []):
        params = point.get("params", {})
        metrics = point.get("metrics", {})
        rows.append([
            params.get("workload", "?"),
            params.get("batch", "?"),
            metrics.get("cached_qps", ""),
            metrics.get("cache_hit_rate", ""),
            metrics.get("cache_hits", ""),
            metrics.get("cache_misses", ""),
            metrics.get("cache_evictions", ""),
            metrics.get("speedup", ""),
        ])
    return format_table(
        ["workload", "batch", "cached_qps", "hit_rate", "hits", "misses", "evict", "speedup"],
        rows,
    )


def _render_perf_core(doc: Dict[str, Any]) -> str:
    perf = doc.get("perf", {})
    lines = []
    if perf:
        lines.append(
            f"headline: n={perf.get('headline_n')} multiply speedup vs reference = "
            f"{_cell(float(perf.get('multiply_speedup_vs_reference', 0)))}x"
        )
    points = doc.get("points", [])
    norms = [float(p["metrics"].get("normalized", 0)) for p in points]
    peak = max(norms or [0.0])
    rows = []
    for point in points:
        metrics = point.get("metrics", {})
        norm = float(metrics.get("normalized", 0))
        rows.append([
            point.get("params", {}).get("case", "?"),
            metrics.get("seconds", ""),
            norm,
            ascii_bar(norm, peak),
        ])
    lines.append(format_table(["case", "seconds", "normalized", ""], rows))
    return "\n".join(lines)


def _render_streaming(doc: Dict[str, Any]) -> str:
    rows = []
    for point in doc.get("points", []):
        params = point.get("params", {})
        metrics = point.get("metrics", {})
        rows.append([
            params.get("workload", "?"),
            metrics.get("amortised_tick_seconds", ""),
            metrics.get("rebuild_per_tick_seconds", ""),
            metrics.get("speedup", ""),
        ])
    return format_table(["workload", "tick_s", "rebuild_s", "speedup"], rows)


_RENDERERS: Dict[str, Callable[[Dict[str, Any]], str]] = {
    "shard_scaling": _render_shard_scaling,
    "service_throughput": _render_service_throughput,
    "perf_core": _render_perf_core,
    "streaming_throughput": _render_streaming,
}


def render_document(path: str, doc: Dict[str, Any]) -> str:
    if "_load_error" in doc:
        return f"{_header(os.path.basename(path))}\nskipped: {doc['_load_error']}"
    name = doc.get("experiment", "?")
    title = doc.get("title", "")
    checks = doc.get("checks_passed")
    status = {True: "checks passed", False: "CHECKS FAILED", None: "checks not run"}[
        True if checks is True else (False if checks is False else None)
    ]
    head = _header(f"{name} — {title}" if title else name)
    meta = (
        f"file: {os.path.basename(path)} | quick={doc.get('quick')} | "
        f"version={doc.get('package_version')} | {status}"
    )
    body = _RENDERERS.get(name, _render_generic)(doc)
    return f"{head}\n{meta}\n\n{body}"


# ----------------------------------------------------------------- trend
def render_trend_table(trend_path: str) -> str:
    """The perf-over-commits table from ``results/perf_trend.jsonl``."""
    from ..perf.trend import load_trend

    head = _header("perf trend (normalized seconds per case, by commit)")
    try:
        rows_raw = load_trend(trend_path)
    except (OSError, ValueError) as exc:
        return f"{head}\n(no trend data: {exc})"
    if not rows_raw:
        return f"{head}\n(no trend rows recorded yet — run `repro perf --record-trend`)"

    cases = sorted({case for row in rows_raw for case in row.get("normalized", {})})
    shown = cases[:5]
    headers = ["commit", "when", "quick", "speedup_x"] + shown
    rows = []
    for row in rows_raw:
        when = time.strftime("%Y-%m-%d %H:%M", time.gmtime(float(row.get("timestamp", 0))))
        rows.append(
            [row.get("commit", "?"), when, row.get("quick", "?"),
             row.get("multiply_speedup_vs_reference", "")]
            + [row.get("normalized", {}).get(case, "") for case in shown]
        )
    table = format_table(headers, rows)
    if len(cases) > len(shown):
        table += f"\n({len(cases) - len(shown)} more cases not shown)"
    return f"{head}\n{table}"


# ------------------------------------------------------------------ driver
def render_report(
    paths: Sequence[str],
    *,
    trend_path: Optional[str] = None,
) -> str:
    """The full report text; the CLI prints this verbatim."""
    docs = load_documents(paths)
    sections = [render_document(path, doc) for path, doc in docs]
    if trend_path is not None:
        sections.append(render_trend_table(trend_path))
    return "\n\n\n".join(sections) + "\n"
