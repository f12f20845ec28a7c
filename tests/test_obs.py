"""Tests for the observability layer (:mod:`repro.obs`).

Covers the four surfaces the layer promises:

* metrics — a registry whose counters/histograms stay exact under thread
  contention, whose snapshots merge across processes without losing counts,
  and whose Prometheus text round-trips through the bundled parser;
* tracing — one ``POST /v2/batch`` through a 2-shard router yields a single
  trace covering edge → coalesce → route → worker → answer with consistent
  IDs and child spans inside their parents;
* one store — per-shard counters reach ``GET /metrics`` with the values
  the ``/stats`` JSON reports (both read the router's registry);
* reporting — ``repro report`` renders every recorded artifact, the trend
  log and the capacity planner without matplotlib or any third-party dep.
"""

import json
import pickle
import threading
import urllib.request

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    histogram_quantile,
    log_buckets,
    merge_snapshots,
    parse_prometheus_text,
    relabel_snapshot,
    render_prometheus,
)
from repro.obs.trace import Tracer, current_trace_id, span


def _get_text(url, timeout=30.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read().decode("utf-8")


# ---------------------------------------------------------------- metrics
class TestRegistry:
    def test_counter_exact_under_thread_contention(self):
        registry = MetricsRegistry()
        counter = registry.counter("work_total", "units of work", labelnames=("kind",))
        hist = registry.histogram("work_seconds", "work latency")

        def hammer():
            for i in range(2000):
                counter.inc(kind="a" if i % 2 else "b")
                hist.observe(1e-4 * (i % 7 + 1))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = registry.snapshot()
        samples = dict(
            (labels[0][1], value) for labels, value in snap["work_total"]["samples"]
        )
        assert samples == {"a": 8000.0, "b": 8000.0}
        (_, value), = snap["work_seconds"]["samples"]
        assert value["count"] == 16000
        assert sum(value["counts"]) == 16000

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_type_conflict_is_loud(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "x")

    def test_snapshot_pickles_and_merges_across_processes(self):
        # A worker process ships its snapshot over a pipe (pickled); the
        # router merges it with its own.  Same math, no multiprocessing
        # needed to pin it.
        a = MetricsRegistry()
        b = MetricsRegistry()
        for registry, n in ((a, 3), (b, 5)):
            counter = registry.counter("requests_total", "reqs", labelnames=("route",))
            counter.inc(n, route="/v2/batch")
            registry.histogram("wait_seconds", "wait").observe(0.001 * n)
            registry.gauge("resident_bytes", "bytes").set(100 * n)
        remote = pickle.loads(pickle.dumps(b.snapshot()))
        merged = merge_snapshots(a.snapshot(), remote)
        (_, requests), = merged["requests_total"]["samples"]
        assert requests == 8.0
        (_, wait), = merged["wait_seconds"]["samples"]
        assert wait["count"] == 2 and wait["sum"] == pytest.approx(0.008)
        (_, resident), = merged["resident_bytes"]["samples"]
        assert resident == 800.0

    def test_relabel_stamps_every_series(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "c", labelnames=("k",)).inc(k="v")
        snap = relabel_snapshot(registry.snapshot(), {"shard": "3"})
        (labels, _), = snap["c_total"]["samples"]
        assert ["shard", "3"] in [list(kv) for kv in labels]


class TestHistogramMath:
    def test_log_buckets_shape(self):
        bounds = log_buckets(start=1e-3, factor=2.0, count=5)
        assert bounds == (1e-3, 2e-3, 4e-3, 8e-3, 16e-3)
        assert len(DEFAULT_TIME_BUCKETS) == 24

    def test_quantile_vs_numpy_within_bucket_error(self, rng):
        bounds = list(DEFAULT_TIME_BUCKETS)
        values = rng.exponential(scale=0.02, size=4000) + 1e-4
        counts = [0] * (len(bounds) + 1)
        for v in values:
            slot = int(np.searchsorted(bounds, v, side="left"))
            counts[slot] += 1
        for q in (0.5, 0.9, 0.95, 0.99):
            estimate = histogram_quantile(q, bounds, counts)
            exact = float(np.quantile(values, q))
            # The estimate must land inside the bucket containing the exact
            # quantile — that's the advertised "within one bucket" accuracy.
            slot = int(np.searchsorted(bounds, exact, side="left"))
            lo = bounds[slot - 1] if slot > 0 else 0.0
            hi = bounds[slot] if slot < len(bounds) else float("inf")
            assert lo <= estimate <= hi

    def test_quantile_edge_cases(self):
        assert histogram_quantile(0.5, [1.0, 2.0], [0, 0, 0]) == 0.0
        # All mass in +Inf bucket degrades to the last finite bound.
        assert histogram_quantile(0.5, [1.0, 2.0], [0, 0, 10]) == 2.0


class TestExposition:
    def test_render_parse_roundtrip_with_braces_in_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "repro_http_requests_total", "requests", labelnames=("route", "status")
        )
        # Route templates contain literal braces — the parser must split on
        # the LAST '}' of the label block, not the first.
        counter.inc(4, route="/builds/{token}", status="200")
        registry.histogram("repro_wait_seconds", "wait", bounds=(0.1, 1.0)).observe(0.5)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_http_requests_total counter" in text
        parsed = parse_prometheus_text(text)
        series = parsed["repro_http_requests_total"]
        key = (("route", "/builds/{token}"), ("status", "200"))
        assert series[key] == 4.0
        buckets = parsed["repro_wait_seconds_bucket"]
        # Cumulative buckets: 0 below 0.1, 1 at le=1.0 and le=+Inf.
        assert buckets[(("le", "0.1"),)] == 0.0
        assert buckets[(("le", "1"),)] == 1.0
        assert buckets[(("le", "+Inf"),)] == 1.0
        assert parsed["repro_wait_seconds_count"][()] == 1.0


# ------------------------------------------------------------- percentiles
class TestLoadgenPercentiles:
    def test_percentile_linear_matches_numpy(self, rng):
        from repro.server.loadgen import percentile_linear

        for n in (1, 2, 7, 100, 999):
            values = rng.exponential(scale=3.0, size=n).tolist()
            for q in (0, 25, 50, 95, 99, 100):
                assert percentile_linear(values, q) == pytest.approx(
                    float(np.percentile(np.asarray(values), q)), abs=1e-12
                )

    def test_percentile_linear_rejects_bad_input(self):
        from repro.server.loadgen import percentile_linear

        with pytest.raises(ValueError):
            percentile_linear([], 50)
        with pytest.raises(ValueError):
            percentile_linear([1.0], 101)


# ---------------------------------------------------------------- tracing
class TestTracing:
    def test_span_is_noop_without_active_trace(self):
        assert current_trace_id() is None
        with span("orphan") as sp:
            assert sp is None

    def test_trace_tree_and_chrome_export(self):
        tracer = Tracer(capacity=4)
        with tracer.start_trace("edge", method="POST"):
            trace_id = current_trace_id()
            with span("coalesce", requests=2):
                with span("route"):
                    pass
            with span("answer"):
                pass
        assert len(trace_id) == 16
        (trace,) = tracer.completed()
        assert trace.trace_id == trace_id
        doc = trace.to_jsonable()
        by_name = {sp["name"]: sp for sp in doc["spans"]}
        assert set(by_name) == {"edge", "coalesce", "route", "answer"}
        assert by_name["edge"]["parent_id"] is None
        assert by_name["route"]["parent_id"] == by_name["coalesce"]["span_id"]
        assert by_name["answer"]["parent_id"] == by_name["edge"]["span_id"]
        chrome = trace.to_chrome()
        assert {ev["name"] for ev in chrome["traceEvents"]} == set(by_name)
        json.dumps(chrome)  # must be JSON-serializable as-is

    def test_ring_buffer_bounded(self):
        tracer = Tracer(capacity=2)
        for index in range(5):
            with tracer.start_trace("t", index=index):
                pass
        assert tracer.stats() == {
            "started": 5,
            "retained": 2,
            "capacity": 2,
            "sampled_total": 5,
            "dropped_total": 0,
        }


# ------------------------------------------- end-to-end server observability
@pytest.fixture(scope="module")
def sharded_server():
    from repro.server import start_server
    from repro.service import ShardRouter

    router = ShardRouter(2)
    handle = start_server(router)
    yield handle
    handle.stop()


def _batch_document(seed):
    return {
        "requests": [
            {"op": "lis_length", "id": "a", "workload": "random", "n": 256, "seed": seed},
            {"op": "lis_length", "id": "b", "workload": "random", "n": 257, "seed": seed},
        ]
    }


class TestServerObservability:
    def test_trace_covers_edge_to_answer_across_shards(self, sharded_server):
        from repro.server import get_json, post_json

        status, _, body = post_json(
            sharded_server.url + "/v2/batch", _batch_document(3)
        )
        assert status == 200 and body["errors"] == 0
        trace_id = body["trace_id"]
        assert isinstance(trace_id, str) and len(trace_id) == 16

        status, _, doc = get_json(sharded_server.url + f"/debug/traces/{trace_id}")
        assert status == 200
        assert doc["trace_id"] == trace_id
        spans = doc["spans"]
        names = {sp["name"] for sp in spans}
        assert {"edge", "coalesce", "route", "worker", "answer"} <= names
        by_id = {sp["span_id"]: sp for sp in spans}
        (root,) = [sp for sp in spans if sp["parent_id"] is None]
        assert root["name"] == "edge"
        for sp in spans:
            assert sp["duration_s"] is not None and sp["duration_s"] >= 0
            if sp["parent_id"] is None:
                continue
            parent = by_id[sp["parent_id"]]
            # Child spans sit inside their parent's interval.
            assert sp["start_s"] >= parent["start_s"] - 1e-9
            assert (
                sp["start_s"] + sp["duration_s"]
                <= parent["start_s"] + parent["duration_s"] + 1e-9
            )
        # The two distinct targets hash to sub-batches; every worker span
        # names the shard it ran on.
        worker_shards = {
            sp["attrs"]["shard"] for sp in spans if sp["name"] == "worker"
        }
        assert worker_shards <= {0, 1} and worker_shards

        status, _, listing = get_json(sharded_server.url + "/debug/traces")
        assert status == 200
        assert trace_id in [entry["trace_id"] for entry in listing["traces"]]

        status, _, chrome = get_json(
            sharded_server.url + f"/debug/traces/{trace_id}?format=chrome"
        )
        assert status == 200
        assert {ev["name"] for ev in chrome["traceEvents"]} >= {"edge", "worker"}

    def test_metrics_exposition_and_stats_reconcile(self, sharded_server):
        from repro.server import get_json, post_json

        status, _, _ = post_json(sharded_server.url + "/v2/batch", _batch_document(4))
        assert status == 200
        status, headers, text = _get_text(sharded_server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        parsed = parse_prometheus_text(text)
        for name in (
            "repro_http_requests_total",
            "repro_http_request_seconds_count",
            "repro_server_passes_total",
            "repro_shard_requests_total",
            "repro_shard_pipe_seconds_count",
            "repro_server_uptime_seconds",
            "repro_build_info",
        ):
            assert name in parsed, f"missing series {name}"

        # Per-shard request counters reach /metrics with the values /stats
        # reports: both read the router's registry.
        _, _, stats = get_json(sharded_server.url + "/stats")
        per_shard = stats["service"]["load"]["per_shard_requests"]
        series = parsed["repro_shard_requests_total"]
        for shard_id, expected in enumerate(per_shard):
            assert series[(("shard", str(shard_id)),)] == float(expected)

        # Counters are monotone: another POST strictly grows the pass count.
        before = parsed["repro_server_passes_total"][()]
        status, _, _ = post_json(sharded_server.url + "/v2/batch", _batch_document(5))
        assert status == 200
        _, _, text = _get_text(sharded_server.url + "/metrics")
        after = parse_prometheus_text(text)["repro_server_passes_total"][()]
        assert after >= before + 1

    def test_healthz_and_stats_schema(self, sharded_server):
        import repro
        from repro.server import get_json

        status, _, health = get_json(sharded_server.url + "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        assert health["uptime_seconds"] > 0

        status, _, stats = get_json(sharded_server.url + "/stats")
        assert status == 200
        assert stats["stats_schema"] == "repro.server.stats.v5"
        assert stats["version"] == 5
        assert "plan" not in stats["service"]


# --------------------------------------------------------------- reporting
class TestReport:
    def test_renders_every_recorded_artifact_without_matplotlib(self):
        import glob

        from repro.obs.report import render_report

        paths = sorted(glob.glob("results/*.json"))
        assert paths, "seed repo ships recorded artifacts"
        text = render_report(paths, trend_path="results/perf_trend.jsonl")
        # Plain printable text — every line terminal-renderable, no escape
        # codes, no graphics.
        assert all(ch.isprintable() or ch in "\n\t" for ch in text)
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                name = json.load(handle).get("experiment", "")
            if name:
                assert name in text

    def test_capacity_plan_modes(self):
        from repro.obs.report import capacity_plan

        scaling_doc = {
            "experiment": "shard_scaling",
            "points": [
                {"params": {"shards": 1}, "metrics": {"qps": 1000.0, "cpu_count": 8}},
                {"params": {"shards": 4}, "metrics": {"qps": 3600.0, "cpu_count": 8}},
            ],
        }
        plan = capacity_plan([("s", scaling_doc)], target_qps=5000)
        assert plan["feasible"] is True
        assert plan["scaling_efficiency"] == pytest.approx(0.9)
        assert plan["recommended_shards"] == 6  # ceil(5000 / (1000 * 0.9))

        flat = {
            "experiment": "shard_scaling",
            "points": [
                {"params": {"shards": 1}, "metrics": {"qps": 1000.0, "cpu_count": 1}},
                {"params": {"shards": 4}, "metrics": {"qps": 400.0, "cpu_count": 1}},
            ],
        }
        plan = capacity_plan([("s", flat)], target_qps=5000)
        assert plan["feasible"] is False
        assert plan["recommended_shards"] is None
        assert any("no parallel speedup" in note for note in plan["notes"])

        plan = capacity_plan([], target_qps=10)
        assert plan["feasible"] is False

    def test_trend_record_load_roundtrip(self, tmp_path):
        from repro.perf.trend import load_trend, record_trend, trend_row

        document = {
            "experiment": "perf_core",
            "package_version": "1.7.0",
            "quick": True,
            "perf": {
                "calibration_seconds": 0.015,
                "multiply_speedup_vs_reference": 8.5,
            },
            "points": [
                {"params": {"case": "multiply_n256_h2"}, "metrics": {"normalized": 0.2}},
                {"params": {"case": "service_batch_n512"}, "metrics": {"normalized": 0.01}},
            ],
        }
        path = tmp_path / "trend.jsonl"
        row = record_trend(document, str(path), commit="abc1234")
        assert row["commit"] == "abc1234"
        record_trend(document, str(path), commit="def5678")
        rows = load_trend(str(path))
        assert [r["commit"] for r in rows] == ["abc1234", "def5678"]
        assert rows[0]["normalized"] == {
            "multiply_n256_h2": 0.2,
            "service_batch_n512": 0.01,
        }
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"schema": "wrong"}) + "\n")
        with pytest.raises(ValueError):
            load_trend(str(path))
        assert len(load_trend(str(path), strict=False)) == 2
        assert trend_row(document, commit="x")["quick"] is True
