"""Process-local metrics: counters, gauges, fixed-log-bucket histograms.

Design constraints, in order:

1. **Stdlib only.**  No prometheus_client; the exposition format is the
   plain-text Prometheus format rendered by :func:`render_prometheus`.
2. **Cheap on the hot path.**  One ``inc``/``observe`` is a dict update
   under a registry-wide lock — microseconds, nothing the perf gate can see.
3. **Process-safe by snapshot, not by shared memory.**  A registry is
   process-local.  :meth:`MetricsRegistry.snapshot` produces a plain,
   picklable, JSON-safe dict; :func:`merge_snapshots` folds any number of
   snapshots (sum for counters and histogram buckets, sum for gauges — a
   merged gauge reads as a fleet total) and :func:`relabel_snapshot` stamps
   a snapshot with extra labels (the shard router stamps each worker's
   snapshot with ``shard="i"`` before merging, so per-shard series survive
   the merge).

The module-level default registry (:func:`get_registry`) is what
module-level code with no owning instance records into (the multiply
engine, the scratch arena, fault injection, deadline stages); every
process — the server process and each shard worker — has its own.  Every
serving object that counts (a :class:`~repro.server.core.ServerCore`, its
:class:`~repro.obs.trace.Tracer`, a
:class:`~repro.service.sharding.ShardRouter`, a
:class:`~repro.service.serving.QueryService` and its
:class:`~repro.service.cache.IndexCache`) owns a private
:class:`MetricsRegistry` instead, so two servers in one process never mix
their counts; their ``stats()`` documents are views over those registries
read through :func:`snapshot_value` and :func:`snapshot_timing`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "get_registry",
    "log_buckets",
    "histogram_quantile",
    "merge_snapshots",
    "relabel_snapshot",
    "gauge_fragment",
    "snapshot_value",
    "snapshot_timing",
    "render_prometheus",
    "parse_prometheus_text",
    "parse_exemplars",
    "exemplars_from_snapshot",
]


def log_buckets(start: float = 1e-5, factor: float = 2.0, count: int = 24) -> Tuple[float, ...]:
    """``count`` fixed log-spaced upper bounds: ``start * factor**k``.

    The default covers 10 µs … ~84 s with factor-2 resolution — wide enough
    for both a warm vectorised query pass and a cold n=16384 index build.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError(f"invalid log bucket spec ({start}, {factor}, {count})")
    return tuple(start * factor**k for k in range(count))


#: Default latency buckets shared by every timing histogram, so quantiles
#: stay comparable across subsystems (and mergeable across processes).
DEFAULT_TIME_BUCKETS = log_buckets()


def _label_key(labelnames: Sequence[str], labels: Mapping[str, Any]) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared labelnames {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Metric:
    """Common state of one named metric family (samples keyed by labels)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str], lock: threading.Lock):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._samples: Dict[Tuple[str, ...], Any] = {}

    def _snapshot_samples(self) -> List[List[Any]]:
        return [[list(key), value] for key, value in self._samples.items()]


class Counter(_Metric):
    """A monotonically increasing sum."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._samples.get(_label_key(self.labelnames, labels), 0)


class Gauge(_Metric):
    """A value that can go up and down (set wins; merge sums across processes)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._samples[key] = float(value)

    def add(self, amount: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + float(amount)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._samples.get(_label_key(self.labelnames, labels), 0.0)


class Histogram(_Metric):
    """Fixed-log-bucket histogram (cumulative exposition, mergeable counts).

    ``bounds`` are the finite upper bucket edges; an implicit ``+Inf``
    bucket catches the overflow.  Internally counts are stored
    *per-bucket* (not cumulative) so merging is a plain element-wise sum;
    :func:`render_prometheus` cumulates at exposition time, as the format
    requires.

    An ``observe`` may carry an **exemplar** — a trace ID linking the
    observation back to its retained trace.  Each bucket remembers the most
    recent exemplar (``{"trace_id", "value", "ts"}``); snapshots carry them,
    merges keep the latest by wall-clock timestamp, and
    :func:`render_prometheus` exposes them as OpenMetrics-style
    ``# {trace_id="..."} value ts`` annotations on the ``_bucket`` lines.
    """

    kind = "histogram"

    def __init__(self, name, help_text, labelnames, lock, bounds: Sequence[float]):
        super().__init__(name, help_text, labelnames, lock)
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name} needs strictly increasing bounds")
        self.bounds = bounds

    def observe(
        self, value: float, exemplar: Optional[str] = None, count: int = 1, **labels: Any
    ) -> None:
        """Record ``count`` observations of ``value`` (e.g. one per request of a pass)."""
        value = float(value)
        key = _label_key(self.labelnames, labels)
        # Binary search for the first bound >= value (index == len(bounds)
        # means the +Inf bucket).
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            sample = self._samples.get(key)
            if sample is None:
                sample = {"counts": [0] * (len(self.bounds) + 1), "sum": 0.0, "count": 0}
                self._samples[key] = sample
            sample["counts"][lo] += count
            sample["sum"] += value * count
            sample["count"] += count
            if exemplar is not None:
                # Keyed by str(bucket index) so the snapshot shape survives a
                # JSON round-trip unchanged (JSON object keys are strings).
                exemplars = sample.setdefault("exemplars", {})
                exemplars[str(lo)] = {
                    "trace_id": str(exemplar),
                    "value": value,
                    "ts": time.time(),
                }

    def _snapshot_samples(self) -> List[List[Any]]:
        out = []
        for key, v in self._samples.items():
            value = {"counts": list(v["counts"]), "sum": v["sum"], "count": v["count"]}
            if v.get("exemplars"):
                value["exemplars"] = {
                    bucket: dict(ex) for bucket, ex in v["exemplars"].items()
                }
            out.append([list(key), value])
        return out


def histogram_quantile(q: float, bounds: Sequence[float], counts: Sequence[int]) -> float:
    """The q-quantile (0..1) implied by per-bucket counts, linearly interpolated.

    Within the bucket containing the target rank the mass is assumed uniform
    between the bucket's edges (lower edge 0 for the first bucket), which is
    the standard Prometheus ``histogram_quantile`` estimator — so the answer
    is exact up to one bucket width.  The ``+Inf`` bucket degrades to the
    last finite bound.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0.0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if seen + count >= rank:
            if index >= len(bounds):  # +Inf bucket: no upper edge to lerp to
                return float(bounds[-1])
            lo = float(bounds[index - 1]) if index > 0 else 0.0
            hi = float(bounds[index])
            inside = max(0.0, rank - seen)
            return lo + (hi - lo) * (inside / count)
        seen += count
    return float(bounds[-1])


class MetricsRegistry:
    """A thread-safe collection of named metrics.

    ``counter``/``gauge``/``histogram`` are get-or-create: instrumenting
    modules call them at import time and every call site sharing a
    registry shares one metric object.  The process-global registry
    (:func:`get_registry`) serves module-level instrumentation; serving
    objects that must keep their counts apart (one server per experiment
    grid point, each with its own service and cache) construct their own
    and merge its :meth:`snapshot` into the exposition.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # -------------------------------------------------------------- creation
    def _get_or_create(self, cls, name: str, help_text: str, labelnames, **kwargs) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with a different "
                        f"type/labelset ({existing.kind}, {existing.labelnames})"
                    )
                return existing
            metric = cls(name, help_text, tuple(labelnames), self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        bounds: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, labelnames, bounds=bounds)

    def reset(self) -> None:
        """Zero every metric in place (fork hygiene).

        A forked child inherits a byte-copy of this registry — live counter
        values included, which would double-count once the child's snapshot
        is merged back into the parent's exposition.  Clearing the sample
        *values* (not the metric objects) keeps every module-level metric
        reference valid while the child's counts start from zero.
        """
        with self._lock:
            for metric in self._metrics.values():
                metric._samples.clear()

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, Any]:
        """A plain, picklable, JSON-safe view of every metric.

        Shape: ``{name: {"type", "help", "bounds"?, "samples": [[labels_kv,
        value], ...]}}`` where ``labels_kv`` is a ``[[name, value], ...]``
        list (JSON has no tuple keys) and histogram values are
        ``{"counts", "sum", "count"}`` dicts with *per-bucket* counts.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        out: Dict[str, Any] = {}
        for metric in metrics:
            entry: Dict[str, Any] = {"type": metric.kind, "help": metric.help, "samples": []}
            if isinstance(metric, Histogram):
                entry["bounds"] = list(metric.bounds)
            with self._lock:
                raw = metric._snapshot_samples()
            for key, value in raw:
                labels_kv = [[name, val] for name, val in zip(metric.labelnames, key)]
                entry["samples"].append([labels_kv, value])
            out[metric.name] = entry
        return out


# A fresh default registry per process: shard workers each get their own on
# fork/spawn, which is exactly the isolation the snapshot-merge model wants.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry module-level instrumentation uses."""
    return _REGISTRY


# ------------------------------------------------------------------ merging
def _merge_value(kind: str, a: Any, b: Any) -> Any:
    if kind == "histogram":
        if len(a["counts"]) != len(b["counts"]):
            raise ValueError("cannot merge histograms with different bucket counts")
        merged = {
            "counts": [x + y for x, y in zip(a["counts"], b["counts"])],
            "sum": a["sum"] + b["sum"],
            "count": a["count"] + b["count"],
        }
        exemplars = _merge_exemplars(a.get("exemplars"), b.get("exemplars"))
        if exemplars:
            merged["exemplars"] = exemplars
        return merged
    return a + b


def _merge_exemplars(a: Optional[Dict[str, Any]], b: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-bucket union keeping the most recent exemplar by timestamp."""
    merged: Dict[str, Any] = {bucket: dict(ex) for bucket, ex in (a or {}).items()}
    for bucket, ex in (b or {}).items():
        mine = merged.get(bucket)
        if mine is None or float(ex.get("ts", 0)) >= float(mine.get("ts", 0)):
            merged[bucket] = dict(ex)
    return merged


def merge_snapshots(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    """Fold snapshots: same-name same-labels samples sum (all metric kinds).

    Summing gauges makes a merged gauge read as a fleet total (e.g. resident
    arena bytes across shard workers); per-process series that must stay
    distinguishable should be stamped with :func:`relabel_snapshot` first.
    """
    merged: Dict[str, Any] = {}
    for snap in snapshots:
        for name, entry in snap.items():
            target = merged.get(name)
            if target is None:
                merged[name] = {
                    "type": entry["type"],
                    "help": entry.get("help", ""),
                    "samples": [
                        [[list(kv) for kv in labels], _copy_value(entry["type"], value)]
                        for labels, value in entry["samples"]
                    ],
                }
                if "bounds" in entry:
                    merged[name]["bounds"] = list(entry["bounds"])
                continue
            if target["type"] != entry["type"]:
                raise ValueError(f"metric {name!r} has conflicting types across snapshots")
            index = {_labels_tuple(labels): i for i, (labels, _) in enumerate(target["samples"])}
            for labels, value in entry["samples"]:
                key = _labels_tuple(labels)
                if key in index:
                    slot = target["samples"][index[key]]
                    slot[1] = _merge_value(entry["type"], slot[1], value)
                else:
                    target["samples"].append([[list(kv) for kv in labels], _copy_value(entry["type"], value)])
    return merged


def _labels_tuple(labels_kv: Iterable[Sequence[Any]]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels_kv))


def _copy_value(kind: str, value: Any) -> Any:
    if kind == "histogram":
        copied = {"counts": list(value["counts"]), "sum": value["sum"], "count": value["count"]}
        if value.get("exemplars"):
            copied["exemplars"] = {b: dict(ex) for b, ex in value["exemplars"].items()}
        return copied
    return value


def relabel_snapshot(snapshot: Dict[str, Any], extra: Mapping[str, Any]) -> Dict[str, Any]:
    """A copy of ``snapshot`` with ``extra`` labels stamped onto every sample."""
    stamped = [[str(k), str(v)] for k, v in extra.items()]
    out: Dict[str, Any] = {}
    for name, entry in snapshot.items():
        copied = {
            "type": entry["type"],
            "help": entry.get("help", ""),
            "samples": [
                [[list(kv) for kv in labels] + [list(kv) for kv in stamped],
                 _copy_value(entry["type"], value)]
                for labels, value in entry["samples"]
            ],
        }
        if "bounds" in entry:
            copied["bounds"] = list(entry["bounds"])
        out[name] = copied
    return out


def gauge_fragment(
    name: str, value: float, help_text: str = "", labels: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """A one-gauge snapshot fragment (for point-in-time values like uptime)."""
    labels_kv = [[str(k), str(v)] for k, v in (labels or {}).items()]
    return {name: {"type": "gauge", "help": help_text, "samples": [[labels_kv, float(value)]]}}


def snapshot_value(snapshot: Dict[str, Any], name: str, **labels: Any) -> float:
    """The sum of a counter or gauge's samples whose labels include ``labels``.

    ``0`` when the series is absent.  ``snapshot_value(snap,
    "repro_shard_requests_total")`` totals every shard;
    ``shard="1"`` picks one.
    """
    want = {str(k): str(v) for k, v in labels.items()}.items()
    return sum(
        value
        for labels_kv, value in snapshot.get(name, {}).get("samples", ())
        if want <= {str(k): str(v) for k, v in labels_kv}.items()
    )


def snapshot_timing(snapshot: Dict[str, Any], name: str) -> Dict[str, float]:
    """``{count, total_seconds, mean_seconds, p99_seconds}`` of a histogram.

    Every sample of the series is folded in (all label sets, all merged
    processes).  ``p99_seconds`` is the :func:`histogram_quantile` estimate,
    exact up to one bucket width.
    """
    entry = snapshot.get(name)
    samples = [value for _, value in entry["samples"]] if entry is not None else []
    count = sum(sample["count"] for sample in samples)
    total = float(sum(sample["sum"] for sample in samples))
    buckets = [sum(column) for column in zip(*(sample["counts"] for sample in samples))]
    return {
        "count": count,
        "total_seconds": total,
        "mean_seconds": total / count if count else 0.0,
        "p99_seconds": histogram_quantile(0.99, entry["bounds"], buckets) if count else 0.0,
    }


# --------------------------------------------------------------- exposition
def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels_kv: Sequence[Sequence[Any]], extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = [(str(k), str(v)) for k, v in labels_kv] + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_number(value: Any) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """Render a (merged) snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry["type"]
        if entry.get("help"):
            lines.append(f"# HELP {name} {_escape_help(entry['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        for labels_kv, value in entry["samples"]:
            if kind == "histogram":
                bounds = entry.get("bounds", ())
                exemplars = value.get("exemplars") or {}
                cumulative = 0
                for index, count in enumerate(value["counts"]):
                    cumulative += count
                    le = _format_number(bounds[index]) if index < len(bounds) else "+Inf"
                    line = f"{name}_bucket{_format_labels(labels_kv, (('le', le),))} {cumulative}"
                    ex = exemplars.get(str(index))
                    if ex is not None:
                        # OpenMetrics-style exemplar annotation: the most
                        # recent observation that landed in this bucket,
                        # linked to its trace.
                        line += (
                            f' # {{trace_id="{_escape_label(str(ex["trace_id"]))}"}}'
                            f' {repr(float(ex["value"]))} {repr(float(ex.get("ts", 0.0)))}'
                        )
                    lines.append(line)
                lines.append(f"{name}_sum{_format_labels(labels_kv)} {repr(float(value['sum']))}")
                lines.append(f"{name}_count{_format_labels(labels_kv)} {value['count']}")
            else:
                lines.append(f"{name}{_format_labels(labels_kv)} {_format_number(value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse exposition text back into ``{series: {sorted_labels: value}}``.

    Deliberately minimal (no timestamps) — enough for the round-trip test
    and for smoke scripts to assert series presence and counter
    monotonicity without third-party clients.  Exemplar annotations
    (``... # {trace_id="..."} value ts``) are stripped before label
    parsing; :func:`parse_exemplars` reads them instead.  A label *value*
    containing the literal `` # {`` sequence would defeat the stripping —
    no series this repo emits does.
    """
    out: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if " # {" in line:
            line = line[: line.index(" # {")].rstrip()
        if "}" in line:
            # Split on the LAST "}" — label values may contain braces (e.g.
            # the normalised route label "/builds/{token}").
            head, _, tail = line.rpartition("}")
            series, _, labels_raw = head.partition("{")
            value_text = tail.strip()
            labels: List[Tuple[str, str]] = []
            for item in _split_labels(labels_raw):
                key, _, raw = item.partition("=")
                labels.append((key.strip(), raw.strip().strip('"')))
            key_tuple = tuple(sorted(labels))
        else:
            series, _, value_text = line.partition(" ")
            key_tuple = ()
        out.setdefault(series.strip(), {})[key_tuple] = float(value_text)
    return out


def parse_exemplars(text: str) -> List[Dict[str, Any]]:
    """Extract the exemplar annotations from exposition text.

    Returns one record per annotated ``_bucket`` line:
    ``{"series", "labels", "trace_id", "value", "ts"}`` where ``labels`` is
    the sorted label tuple of the carrying sample (including ``le``).  The
    counterpart of the stripping in :func:`parse_prometheus_text`, so smoke
    scripts can assert that exposed exemplars parse and resolve.
    """
    out: List[Dict[str, Any]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or " # {" not in line:
            continue
        head, _, annotation = line.partition(" # {")
        exemplar_raw, _, tail = annotation.partition("}")
        tail_parts = tail.split()
        if not tail_parts:
            continue
        exemplar_labels: Dict[str, str] = {}
        for item in _split_labels(exemplar_raw):
            key, _, raw = item.partition("=")
            exemplar_labels[key.strip()] = raw.strip().strip('"')
        series_head, _, _value_text = head.rpartition(" ")
        if "}" in series_head:
            body, _, _ = series_head.rpartition("}")
            series, _, labels_raw = body.partition("{")
            labels = []
            for item in _split_labels(labels_raw):
                key, _, raw = item.partition("=")
                labels.append((key.strip(), raw.strip().strip('"')))
            key_tuple = tuple(sorted(labels))
        else:
            series, key_tuple = series_head, ()
        out.append(
            {
                "series": series.strip(),
                "labels": key_tuple,
                "trace_id": exemplar_labels.get("trace_id", ""),
                "value": float(tail_parts[0]),
                "ts": float(tail_parts[1]) if len(tail_parts) > 1 else 0.0,
            }
        )
    return out


def exemplars_from_snapshot(snapshot: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Flatten a (merged) snapshot's histogram exemplars into records.

    Shape per record: ``{"metric", "labels", "bucket_le", "trace_id",
    "value", "ts"}`` — what ``GET /debug/exemplars`` serves, so a p99
    outlier links to its span tree without scraping the text format.
    """
    out: List[Dict[str, Any]] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        if entry.get("type") != "histogram":
            continue
        bounds = entry.get("bounds", [])
        for labels_kv, value in entry.get("samples", []):
            for bucket, ex in sorted((value.get("exemplars") or {}).items(), key=lambda kv: int(kv[0])):
                index = int(bucket)
                out.append(
                    {
                        "metric": name,
                        "labels": {str(k): str(v) for k, v in labels_kv},
                        "bucket_le": float(bounds[index]) if index < len(bounds) else None,
                        "trace_id": ex.get("trace_id", ""),
                        "value": float(ex.get("value", 0.0)),
                        "ts": float(ex.get("ts", 0.0)),
                    }
                )
    return out


def _split_labels(raw: str) -> List[str]:
    """Split ``a="x",b="y,z"`` on commas outside quotes."""
    items: List[str] = []
    depth_quote = False
    current = []
    for char in raw:
        if char == '"':
            depth_quote = not depth_quote
            current.append(char)
        elif char == "," and not depth_quote:
            if current:
                items.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        items.append("".join(current))
    return [item for item in (piece.strip() for piece in items) if item]
