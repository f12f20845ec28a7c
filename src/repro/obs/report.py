"""``python -m repro report`` — turn recorded artifacts into readable output.

Loads any set of schema-v1 documents from ``results/``, renders per-experiment
views (scaling curves, latency tables/histograms, cache hit-rate tables), the
perf-over-commits trend table from ``results/perf_trend.jsonl``, and a
``--capacity`` planning mode that combines measured QPS with the recorded
shard-scaling efficiency to answer "how many shards for X requests/second".

Everything renders in ASCII with zero third-party dependencies.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "load_documents",
    "render_document",
    "render_report",
    "render_slo_summary",
    "render_trend_table",
    "capacity_plan",
    "render_capacity",
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


def _render_service_latency(doc: Dict[str, Any]) -> str:
    rows = []
    parts = []
    for point in doc.get("points", []):
        params = point.get("params", {})
        metrics = point.get("metrics", {})
        rows.append([
            params.get("pattern", "?"),
            params.get("batch", "?"),
            metrics.get("qps", ""),
            metrics.get("p50_ms", ""),
            metrics.get("p95_ms", ""),
            metrics.get("p99_ms", ""),
            metrics.get("max_ms", ""),
            metrics.get("coalesced_requests", ""),
            metrics.get("rejected", ""),
        ])
        hist = metrics.get("latency_hist")
        if isinstance(hist, Mapping) and hist.get("counts"):
            label = f"pattern={params.get('pattern')} batch={params.get('batch')}"
            parts.append(_render_latency_hist(label, hist))
    table = format_table(
        ["pattern", "batch", "qps", "p50_ms", "p95_ms", "p99_ms", "max_ms", "coalesced", "rejected"],
        rows,
    )
    method = None
    for point in doc.get("points", []):
        method = point.get("metrics", {}).get("percentile_method") or method
    if method:
        table += f"\npercentile method: {method}"
    return "\n\n".join([table] + parts)


def _render_latency_hist(label: str, hist: Mapping[str, Any]) -> str:
    bounds = [float(b) for b in hist.get("bounds", [])]
    counts = [int(c) for c in hist.get("counts", [])]
    peak = max(counts or [0])
    rows = []
    for index, count in enumerate(counts):
        if count == 0:
            continue
        le = f"{bounds[index] * 1000:.3g} ms" if index < len(bounds) else "+Inf"
        rows.append([f"<= {le}", count, ascii_bar(count, peak)])
    return f"latency histogram [{label}]\n" + format_table(["bucket", "count", ""], rows)


def _render_service_throughput(doc: Dict[str, Any]) -> str:
    rows = []
    for point in doc.get("points", []):
        params = point.get("params", {})
        metrics = point.get("metrics", {})
        rows.append([
            params.get("workload", "?"),
            params.get("backend", "?"),
            params.get("batch", "?"),
            metrics.get("cached_qps", ""),
            metrics.get("cache_hit_rate", ""),
            metrics.get("cache_hits", ""),
            metrics.get("cache_misses", ""),
            metrics.get("cache_evictions", ""),
            metrics.get("speedup", ""),
        ])
    return format_table(
        ["workload", "backend", "batch", "cached_qps", "hit_rate", "hits", "misses", "evict", "speedup"],
        rows,
    )


def _render_perf_core(doc: Dict[str, Any]) -> str:
    perf = doc.get("perf", {})
    lines = []
    if perf:
        plan = perf.get("plan", {})
        lines.append(
            f"headline: n={perf.get('headline_n')} multiply speedup vs reference = "
            f"{_cell(float(perf.get('multiply_speedup_vs_reference', 0)))}x  "
            f"(plan: {', '.join(f'{k}={v}' for k, v in sorted(plan.items()))})"
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
            params.get("backend", "?"),
            metrics.get("amortised_tick_seconds", ""),
            metrics.get("rebuild_per_tick_seconds", ""),
            metrics.get("speedup", ""),
        ])
    return format_table(["workload", "backend", "tick_s", "rebuild_s", "speedup"], rows)


_WINDOW_ORDER = ("5m", "1h", "6h", "3d")


def _render_slo_eval(doc: Dict[str, Any]) -> str:
    """Objectives x windows burn-rate table for one ``slo_eval`` artifact."""
    by_objective: Dict[str, Dict[str, Dict[str, Any]]] = {}
    severities: Dict[str, str] = {}
    for point in doc.get("points", []):
        params = point.get("params", {})
        metrics = point.get("metrics", {})
        name = str(params.get("objective", "?"))
        by_objective.setdefault(name, {})[str(params.get("window", "?"))] = metrics
        severities[name] = str(metrics.get("severity", severities.get(name, "ok")))
    window_names = [
        w for w in _WINDOW_ORDER if any(w in ws for ws in by_objective.values())
    ] or sorted({w for ws in by_objective.values() for w in ws})
    rows = []
    for name, windows in sorted(by_objective.items()):
        row: List[Any] = [name]
        for window in window_names:
            metrics = windows.get(window)
            row.append(_cell(float(metrics["burn_rate"])) + "x" if metrics else "-")
        row.append(severities.get(name, "ok"))
        rows.append(row)
    table = format_table(["objective"] + [f"burn_{w}" for w in window_names] + ["severity"], rows)
    thresholds = doc.get("fixed", {}).get("thresholds", {})
    if thresholds:
        table += (
            f"\nalerts: page when both fast windows >= {thresholds.get('fast_burn')}x, "
            f"ticket when both slow windows >= {thresholds.get('slow_burn')}x"
        )
    tracing = doc.get("fixed", {}).get("tracing", {})
    if tracing:
        table += (
            f"\ntracing: {tracing.get('retained')}/{tracing.get('started')} traces "
            f"retained (sampled={tracing.get('sampled_total')}, "
            f"dropped={tracing.get('dropped_total')})"
        )
    return table


def render_slo_summary(docs: Sequence[Tuple[str, Dict[str, Any]]]) -> str:
    """The ``--slo`` section: every recorded slo_eval document's alert state."""
    head = _header("SLO burn-rate summary")
    parts = [head]
    found = False
    for path, doc in docs:
        if doc.get("experiment") != "slo_eval" or "_load_error" in doc:
            continue
        found = True
        parts.append(f"[{os.path.basename(path)}]")
        parts.append(_render_slo_eval(doc))
    if not found:
        parts.append(
            "(no slo_eval artifacts found — record one with "
            "`repro serve-http --slo-record results/slo_eval.json`)"
        )
    return "\n".join(parts)


_RENDERERS: Dict[str, Callable[[Dict[str, Any]], str]] = {
    "shard_scaling": _render_shard_scaling,
    "service_latency": _render_service_latency,
    "service_throughput": _render_service_throughput,
    "perf_core": _render_perf_core,
    "streaming_throughput": _render_streaming,
    "slo_eval": _render_slo_eval,
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


# --------------------------------------------------------------- capacity
def capacity_plan(
    docs: Sequence[Tuple[str, Dict[str, Any]]], target_qps: float
) -> Dict[str, Any]:
    """Combine measured QPS with shard-scaling efficiency into a shard count.

    Uses the best closed-loop QPS from ``service_latency`` as the
    single-server ceiling and the recorded ``shard_scaling`` curve to derive
    per-added-shard efficiency (which on a single-core host is < 1: the
    artifacts record pipe/dispatch overhead, not parallel speedup, and the
    plan says so rather than extrapolating fiction).
    """
    by_name = {doc.get("experiment"): doc for _, doc in docs if "_load_error" not in doc}
    plan: Dict[str, Any] = {"target_qps": float(target_qps), "feasible": None, "notes": []}

    latency = by_name.get("service_latency")
    single_qps = None
    if latency:
        closed = [
            float(p["metrics"].get("qps", 0))
            for p in latency.get("points", [])
            if p.get("params", {}).get("pattern") == "closed"
        ]
        if closed:
            single_qps = max(closed)
            plan["single_server_qps"] = single_qps

    scaling = by_name.get("shard_scaling")
    if scaling and scaling.get("points"):
        points = sorted(
            scaling["points"], key=lambda p: int(p.get("params", {}).get("shards", 0))
        )
        curve = [
            (int(p["params"]["shards"]), float(p["metrics"].get("qps", 0))) for p in points
        ]
        plan["shard_curve"] = [{"shards": s, "qps": q} for s, q in curve]
        base = curve[0][1] if curve else 0.0
        if len(curve) >= 2 and base > 0:
            last_shards, last_qps = curve[-1]
            # Observed throughput per shard relative to the 1-shard baseline.
            efficiency = (last_qps / base) / last_shards
            plan["scaling_efficiency"] = efficiency
            cpu = int(points[0]["metrics"].get("cpu_count", 0) or 0)
            plan["cpu_count"] = cpu
            if single_qps is None:
                single_qps = base
                plan["single_server_qps"] = base
            if efficiency >= 0.5 and cpu > 1:
                per_shard = single_qps * efficiency
                shards = max(1, _ceil_div(target_qps, per_shard))
                plan["recommended_shards"] = shards
                plan["feasible"] = True
                plan["notes"].append(
                    f"linear model: ceil(target / (single_qps * efficiency)) with "
                    f"efficiency={efficiency:.2f} measured up to {last_shards} shards"
                )
            else:
                plan["feasible"] = target_qps <= (single_qps or 0.0)
                plan["recommended_shards"] = 1 if plan["feasible"] else None
                plan["notes"].append(
                    "recorded shard_scaling shows no parallel speedup "
                    f"(efficiency={efficiency:.2f}, cpu_count={cpu}): sharding on this "
                    "host only adds dispatch overhead, so the honest answer is the "
                    "single-server ceiling; re-record shard_scaling on a multi-core "
                    "host to plan beyond it"
                )
    if single_qps is not None and plan["feasible"] is None:
        plan["feasible"] = target_qps <= single_qps
        plan["recommended_shards"] = 1 if plan["feasible"] else None
        plan["notes"].append("no shard_scaling artifact: single-server ceiling only")

    perf = by_name.get("perf_core", {}).get("perf")
    if perf:
        plan["multiply_speedup_vs_reference"] = perf.get("multiply_speedup_vs_reference")
    if single_qps is None:
        plan["notes"].append(
            "no measured QPS found (need service_latency or shard_scaling artifacts)"
        )
        plan["feasible"] = False
    return plan


def _ceil_div(a: float, b: float) -> int:
    return int(a // b) + (1 if a % b else 0) if b else 0


def render_capacity(plan: Dict[str, Any]) -> str:
    head = _header(f"capacity plan for {plan['target_qps']:g} requests/second")
    lines = [head]
    if "single_server_qps" in plan:
        lines.append(f"measured single-server ceiling: {plan['single_server_qps']:,.0f} qps")
    if "scaling_efficiency" in plan:
        lines.append(
            f"shard scaling efficiency: {plan['scaling_efficiency']:.2f} "
            f"(cpu_count={plan.get('cpu_count', '?')})"
        )
    for entry in plan.get("shard_curve", []):
        lines.append(f"  shards={entry['shards']}: {entry['qps']:,.0f} qps")
    if plan.get("feasible"):
        lines.append(f"recommended shards: {plan.get('recommended_shards')}")
    elif plan.get("feasible") is False:
        lines.append("target NOT reachable from the recorded measurements")
    for note in plan.get("notes", []):
        lines.append(f"note: {note}")
    return "\n".join(lines)


# ------------------------------------------------------------------ driver
def render_report(
    paths: Sequence[str],
    *,
    trend_path: Optional[str] = None,
    capacity_qps: Optional[float] = None,
    slo: bool = False,
) -> str:
    """The full report text; the CLI prints this verbatim."""
    docs = load_documents(paths)
    sections = [render_document(path, doc) for path, doc in docs]
    if slo:
        sections.append(render_slo_summary(docs))
    if trend_path is not None:
        sections.append(render_trend_table(trend_path))
    if capacity_qps is not None:
        sections.append(render_capacity(capacity_plan(docs, capacity_qps)))
    return "\n\n\n".join(sections) + "\n"
