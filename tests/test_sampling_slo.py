"""Tests for adaptive trace sampling, latency exemplars and the SLO engine.

The contracts this file pins:

* head sampling is a pure function of the trace ID — the same ID gets the
  same verdict in this process, in a fresh subprocess, and at any higher
  sampling rate (the kept-sets nest);
* tail-based retention keeps every latency outlier even when head sampling
  would drop 99% of traffic, and the retained set is explainable: each
  retained trace is either head-sampled or provably slow;
* exemplar annotations on ``/metrics`` parse, survive snapshot merges
  (latest timestamp wins), never confuse the Prometheus text parser, and
  resolve to retained traces via ``/debug/traces/<id>``;
* the SLO engine's multi-window burn rates follow the SRE-workbook math
  under an injected clock, and ``/debug/slo`` reconciles exactly with the
  totals ``/stats`` reports (same snapshot, same numbers);
* span events ride inside spans, export to Chrome instant events, and the
  chrome export download carries a stable Content-Disposition filename.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    merge_snapshots,
    parse_exemplars,
    parse_prometheus_text,
    render_prometheus,
)
from repro.obs.sampling import TraceSampler, head_decision
from repro.obs.slo import (
    FAST_BURN_THRESHOLD,
    SLOEngine,
    SLObjective,
    default_objectives,
)
from repro.obs.trace import Tracer, span, span_event
from repro.server import get_json, post_json, start_server

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ------------------------------------------------------------- head sampling
class TestHeadSampling:
    def test_deterministic_and_rate_bounded(self):
        ids = [f"{i:016x}" for i in range(4000)]
        kept = [tid for tid in ids if head_decision(tid, 0.25)]
        # Deterministic: a second pass agrees exactly.
        assert kept == [tid for tid in ids if head_decision(tid, 0.25)]
        # Statistically near the configured rate (SHA-256 is uniform).
        assert 0.18 < len(kept) / len(ids) < 0.32

    def test_kept_sets_nest_as_rate_rises(self):
        ids = [f"trace-{i}" for i in range(2000)]
        kept_1 = {tid for tid in ids if head_decision(tid, 0.01)}
        kept_5 = {tid for tid in ids if head_decision(tid, 0.05)}
        kept_50 = {tid for tid in ids if head_decision(tid, 0.50)}
        assert kept_1 <= kept_5 <= kept_50

    def test_edge_rates(self):
        assert head_decision("anything", 1.0) is True
        assert head_decision("anything", 0.0) is False

    def test_same_decision_in_fresh_process(self):
        # Cross-process stability is the whole point of hashing the ID
        # instead of using Python's salted hash(): a fleet of workers must
        # agree on which traces are head-sampled.
        ids = [f"{i:016x}" for i in range(64)]
        local = [head_decision(tid, 0.3) for tid in ids]
        code = (
            "import json, sys\n"
            "from repro.obs.sampling import head_decision\n"
            "ids = json.load(sys.stdin)\n"
            "print(json.dumps([head_decision(t, 0.3) for t in ids]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            input=json.dumps(ids),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert json.loads(proc.stdout) == local

    def test_sampler_validates_configuration(self):
        with pytest.raises(ValueError):
            TraceSampler(1.5)
        with pytest.raises(ValueError):
            TraceSampler(0.5, tail_quantile=1.0)
        with pytest.raises(ValueError):
            TraceSampler(0.5, tail_min_seconds=-1.0)
        with pytest.raises(ValueError):
            TraceSampler(0.5, warmup=0)


# ------------------------------------------------------------ tail retention
class TestTailRetention:
    def test_floor_keeps_slow_traces_without_warmup(self):
        sampler = TraceSampler(0.0, tail_min_seconds=0.05)
        keep, decision = sampler.decide("/v2/batch", 0.2, head_sampled=False)
        assert keep and decision == "tail"
        keep, decision = sampler.decide("/v2/batch", 0.001, head_sampled=False)
        assert not keep and decision is None

    def test_adaptive_threshold_tracks_the_route_quantile(self):
        sampler = TraceSampler(0.0, tail_quantile=0.5, warmup=8)
        assert sampler.tail_threshold("/v2/batch") is None  # cold: no opinion
        for _ in range(20):
            sampler.decide("/v2/batch", 0.001, head_sampled=False)
        threshold = sampler.tail_threshold("/v2/batch")
        # The median of a pile of 1ms observations sits near 1ms on the
        # log-bucket grid, certainly nowhere near seconds.
        assert threshold is not None and 0.0005 < threshold < 0.01
        keep, decision = sampler.decide("/v2/batch", 1.0, head_sampled=False)
        assert keep and decision == "tail"

    def test_threshold_is_per_route(self):
        sampler = TraceSampler(0.0, tail_quantile=0.5, warmup=4)
        for _ in range(8):
            sampler.decide("/fast", 0.001, head_sampled=False)
        assert sampler.tail_threshold("/fast") is not None
        assert sampler.tail_threshold("/slow") is None

    def test_head_sampled_traces_keep_regardless_of_latency(self):
        sampler = TraceSampler(1.0)
        keep, decision = sampler.decide("/v2/batch", 0.0, head_sampled=True)
        assert keep and decision == "head"

    def test_tracer_retention_follows_sampler(self):
        tracer = Tracer(capacity=8, sampler=TraceSampler(0.0, tail_min_seconds=0.05))
        with tracer.start_trace("edge", route="/v2/batch") as fast:
            pass
        with tracer.start_trace("edge", route="/v2/batch") as slow:
            time.sleep(0.08)
        assert not fast.retained and fast.retain_decision is None
        assert slow.retained and slow.retain_decision == "tail"
        assert tracer.get(fast.trace_id) is None
        assert tracer.get(slow.trace_id) is slow
        stats = tracer.stats()
        assert stats["sampled_total"] == 1 and stats["dropped_total"] == 1
        assert stats["sampler"]["tail_min_seconds"] == 0.05


# ----------------------------------------------------------------- exemplars
class TestExemplars:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        hist = registry.histogram("req_seconds", "latency", ("route",))
        hist.observe(0.003, exemplar="deadbeefcafef00d", route="/v2/batch")
        hist.observe(0.003, route="/v2/batch")  # no exemplar: keeps the old one
        text = render_prometheus(registry.snapshot())
        records = parse_exemplars(text)
        assert len(records) == 1
        record = records[0]
        assert record["trace_id"] == "deadbeefcafef00d"
        assert record["value"] == 0.003
        assert ("route", "/v2/batch") in record["labels"]

    def test_exemplar_annotations_do_not_confuse_the_parser(self):
        registry = MetricsRegistry()
        hist = registry.histogram("req_seconds", "latency", ("route",))
        hist.observe(0.003, exemplar="deadbeefcafef00d", route="/v2/batch")
        plain = registry.snapshot()
        parsed = parse_prometheus_text(render_prometheus(plain))
        # Bucket counts parse to the same numbers with or without the
        # trailing `# {...}` annotation.
        assert any(
            value == 1.0
            for labels, value in parsed["req_seconds_bucket"].items()
            if ("route", "/v2/batch") in labels
        )
        assert parsed["req_seconds_count"][(("route", "/v2/batch"),)] == 1.0

    def test_merge_keeps_latest_exemplar_per_bucket(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("req_seconds", "latency").observe(0.003, exemplar="old-trace")
        snap_a = a.snapshot()
        time.sleep(0.01)
        b.histogram("req_seconds", "latency").observe(0.003, exemplar="new-trace")
        snap_b = b.snapshot()
        for merged in (merge_snapshots(snap_a, snap_b), merge_snapshots(snap_b, snap_a)):
            (labels, value), = merged["req_seconds"]["samples"]
            exemplars = value["exemplars"]
            assert len(exemplars) == 1
            (record,) = exemplars.values()
            assert record["trace_id"] == "new-trace"
            # Counts still sum: merging never loses observations.
            assert value["count"] == 2


# ---------------------------------------------------------------- SLO engine
def _avail_snapshot(ok, errors, route="/v2/batch"):
    return {
        "repro_http_requests_total": {
            "type": "counter",
            "samples": [
                ((("route", route), ("status", "200")), float(ok)),
                ((("route", route), ("status", "500")), float(errors)),
            ],
        }
    }


def _latency_snapshot(fast, slow, route="/v2/batch"):
    bounds = [0.1, 0.25, 1.0]
    counts = [float(fast), 0.0, float(slow)]
    return {
        "repro_http_request_seconds": {
            "type": "histogram",
            "bounds": bounds,
            "samples": [
                (
                    (("route", route),),
                    {
                        "counts": counts + [0.0],
                        "count": float(fast + slow),
                        "sum": 0.0,
                    },
                )
            ],
        }
    }


class TestSLOEngine:
    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="weird", target=0.99)
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="availability", target=1.0)
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="latency", target=0.99)  # no threshold

    def test_burn_rate_math_over_windows(self):
        clock = {"now": 1_000_000.0}
        objective = SLObjective(
            name="avail", kind="availability", target=0.999, route="/v2/batch"
        )
        engine = SLOEngine([objective], clock=lambda: clock["now"])
        engine.record(_avail_snapshot(ok=1000, errors=0))
        clock["now"] += 400.0  # past the 5m window, inside the others
        evaluation = engine.evaluate(_avail_snapshot(ok=1050, errors=50))
        (result,) = evaluation["objectives"]
        windows = result["windows"]
        # 5m window: delta vs the 400s-old point = 100 requests, 50 errors.
        assert windows["5m"]["total"] == 100.0
        assert windows["5m"]["error_ratio"] == pytest.approx(0.5)
        assert windows["5m"]["burn_rate"] == pytest.approx(0.5 / 0.001)
        # 1h window: server younger than the window — everything since
        # start, with honest coverage.
        assert windows["1h"]["total"] == 1100.0
        assert windows["1h"]["coverage_seconds"] == pytest.approx(400.0)
        assert windows["1h"]["burn_rate"] == pytest.approx((50 / 1100) / 0.001)
        assert result["alerts"]["fast_page"] is True
        assert result["alerts"]["severity"] == "page"
        assert windows["5m"]["burn_rate"] >= FAST_BURN_THRESHOLD

    def test_healthy_service_never_alerts(self):
        clock = {"now": 500_000.0}
        engine = SLOEngine(clock=lambda: clock["now"])
        for _ in range(5):
            clock["now"] += 600.0
            snapshot = {}
            snapshot.update(_avail_snapshot(ok=clock["now"], errors=0))
            snapshot.update(_latency_snapshot(fast=1000, slow=0))
            evaluation = engine.evaluate(snapshot)
        for result in evaluation["objectives"]:
            assert result["alerts"]["severity"] == "ok"
            for window in result["windows"].values():
                assert window["burn_rate"] == pytest.approx(0.0)

    def test_latency_objective_counts_buckets_under_threshold(self):
        objective = SLObjective(
            name="lat",
            kind="latency",
            target=0.99,
            route="/v2/batch",
            threshold_seconds=0.25,
        )
        engine = SLOEngine([objective], clock=lambda: 123.0)
        summary = engine.totals_summary(_latency_snapshot(fast=90, slow=10))
        assert summary["lat"]["good"] == 90.0
        assert summary["lat"]["total"] == 100.0

    def test_slow_ticket_requires_both_slow_windows(self):
        clock = {"now": 2_000_000.0}
        objective = SLObjective(
            name="avail", kind="availability", target=0.99, route="/v2/batch"
        )
        engine = SLOEngine([objective], clock=lambda: clock["now"])
        # Long healthy history: ~28 hours of clean traffic, then a point
        # just outside the 5m window, then a fresh burst of errors.
        engine.record(_avail_snapshot(ok=10_000, errors=0))
        clock["now"] += 100_000.0
        engine.record(_avail_snapshot(ok=20_000, errors=0))
        clock["now"] += 310.0
        evaluation = engine.evaluate(_avail_snapshot(ok=20_000, errors=100))
        (result,) = evaluation["objectives"]
        # The 5m window sees 100 requests, all errors — it burns hard.
        assert result["windows"]["5m"]["burn_rate"] > 1.0
        # The slow windows amortise the burst over the long clean history.
        assert result["windows"]["6h"]["burn_rate"] < 1.0
        assert result["windows"]["3d"]["burn_rate"] < 1.0
        assert result["alerts"]["slow_ticket"] is False

    def test_default_objectives_cover_batch_route(self):
        objectives = default_objectives()
        assert {o.kind for o in objectives} == {"availability", "latency"}
        assert all(o.route == "/v2/batch" for o in objectives)


# --------------------------------------------------------------- span events
class TestSpanEvents:
    def test_events_attach_to_the_active_span(self):
        tracer = Tracer(capacity=4)
        with tracer.start_trace("edge", route="/t") as trace:
            with span("work"):
                span_event("cache_spill_save", fingerprint="abc", nbytes=128)
        spans = {sp["name"]: sp for sp in trace.to_jsonable()["spans"]}
        (event,) = spans["work"]["events"]
        assert event["name"] == "cache_spill_save"
        assert event["attrs"] == {"fingerprint": "abc", "nbytes": 128}
        assert event["at_s"] >= 0.0

    def test_event_outside_any_trace_is_a_noop(self):
        span_event("orphan", detail="nothing listens")  # must not raise

    def test_chrome_export_emits_instant_events(self):
        tracer = Tracer(capacity=4)
        with tracer.start_trace("edge", route="/t") as trace:
            with span("work"):
                span_event("shard_restart", shard=1)
        chrome = trace.to_chrome()
        instants = [ev for ev in chrome["traceEvents"] if ev.get("ph") == "i"]
        assert [ev["name"] for ev in instants] == ["shard_restart"]
        json.dumps(chrome)  # stays JSON-serializable

    def test_summary_counts_events(self):
        tracer = Tracer(capacity=4)
        with tracer.start_trace("edge", route="/t") as trace:
            span_event("one")
            span_event("two")
        assert trace.summary()["event_count"] == 2


# ----------------------------------------------- end-to-end tail retention
class _SlowService:
    """Delegating wrapper that sleeps when a marker request passes through."""

    def __init__(self, inner, delay):
        self._inner = inner
        self._delay = delay

    def submit(self, requests):
        if any(str(r.request_id).startswith("slow") for r in requests):
            time.sleep(self._delay)
        return self._inner.submit(requests)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _doc(request_id, seed, n=96):
    return {
        "requests": [
            {
                "op": "lis_length",
                "id": request_id,
                "workload": "random",
                "n": n,
                "seed": seed,
            }
        ]
    }


@pytest.fixture(scope="module")
def sampled_server():
    from repro.service import QueryService

    sampler = TraceSampler(0.01, tail_min_seconds=0.25)
    handle = start_server(
        _SlowService(QueryService(), delay=0.4),
        sampler=sampler,
        trace_capacity=64,
    )
    yield handle
    handle.stop()


class TestEndToEndTailRetention:
    def test_outliers_survive_one_percent_head_sampling(self, sampled_server):
        url = sampled_server.url
        slow_ids, fast_results = [], []
        for i in range(30):
            status, _, body = post_json(url + "/v2/batch", _doc(f"fast-{i}", seed=7))
            assert status == 200
            fast_results.append(body["trace_id"])
            if i % 10 == 5:
                status, _, body = post_json(
                    url + "/v2/batch", _doc(f"slow-{i}", seed=7)
                )
                assert status == 200
                slow_ids.append(body["trace_id"])
        assert len(slow_ids) == 3

        # The acceptance bar: every latency outlier is retrievable even
        # though head sampling keeps ~1% of traffic.
        for trace_id in slow_ids:
            status, _, doc = get_json(url + f"/debug/traces/{trace_id}")
            assert status == 200, f"tail trace {trace_id} was dropped"
            assert doc["trace_id"] == trace_id

        # Every retained trace is explainable: head-sampled by the same
        # deterministic function a client can evaluate, or provably slow.
        status, _, listing = get_json(url + "/debug/traces")
        assert status == 200
        assert listing["traces"], "ring cannot be empty after a load run"
        for entry in listing["traces"]:
            if entry["retain_decision"] == "head":
                assert head_decision(entry["trace_id"], 0.01)
            else:
                assert entry["retain_decision"] == "tail"
                assert entry["duration_s"] >= 0.25
        assert "tail_thresholds" in listing
        assert "/v2/batch" in listing["tail_thresholds"]

        # Sampler counters surface in /stats and reconcile with the ring.
        _, _, stats = get_json(url + "/stats")
        tracing = stats["tracing"]
        assert tracing["sampled_total"] >= len(slow_ids)
        assert tracing["dropped_total"] >= 1
        assert tracing["sampler"]["head_rate"] == 0.01

    def test_metrics_exemplars_resolve_to_retained_traces(self, sampled_server):
        import urllib.request

        url = sampled_server.url
        status, _, body = post_json(url + "/v2/batch", _doc("slow-exemplar", seed=7))
        assert status == 200
        slow_trace = body["trace_id"]

        with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
            text = response.read().decode("utf-8")
        records = [
            record
            for record in parse_exemplars(text)
            if record["series"] == "repro_http_request_seconds_bucket"
            and ("route", "/v2/batch") in record["labels"]
        ]
        assert records, "a retained trace must leave an exemplar on /metrics"
        trace_ids = {record["trace_id"] for record in records}
        assert slow_trace in trace_ids
        status, _, doc = get_json(url + f"/debug/traces/{slow_trace}")
        assert status == 200 and doc["trace_id"] == slow_trace

        # The JSON surface agrees with the text surface.
        status, _, debug = get_json(url + "/debug/exemplars")
        assert status == 200
        assert debug["schema"] == "repro.server.exemplars"
        by_id = {record["trace_id"]: record for record in debug["exemplars"]}
        assert by_id[slow_trace]["retained"] is True

    def test_debug_slo_reconciles_with_stats(self, sampled_server):
        url = sampled_server.url
        status, _, slo = get_json(url + "/debug/slo")
        assert status == 200
        assert slo["schema"] == "repro.server.slo"
        status, _, stats = get_json(url + "/stats")
        assert status == 200
        # GET /stats and /debug/slo only move non-batch counters, so the
        # /v2/batch-scoped objective totals must agree exactly.
        by_name = {entry["name"]: entry for entry in slo["objectives"]}
        for name, summary in stats["slo"].items():
            assert by_name[name]["totals"]["good"] == summary["good"]
            assert by_name[name]["totals"]["total"] == summary["total"]
        availability = by_name["batch-availability-99.9"]
        # The HTTP counters live in this server's own registry, so the
        # objective counts exactly the /v2/batch POSTs this server answered
        # (every document in this module carries one request).
        answered = stats["requests"]["answered"]
        assert answered > 0
        assert availability["totals"]["total"] == answered
        budget = 1.0 - availability["target"]
        for window in availability["windows"].values():
            expected = (
                (1.0 - window["good"] / window["total"]) / budget
                if window["total"] > 0
                else 0.0
            )
            assert window["burn_rate"] == pytest.approx(expected)


# ------------------------------------------------- chrome export download
class TestChromeDownloadHeader:
    def test_content_disposition_names_the_trace(self):
        import urllib.request

        handle = start_server()
        try:
            status, _, body = post_json(
                handle.url + "/v2/batch", _doc("dl", seed=3)
            )
            assert status == 200
            trace_id = body["trace_id"]
            with urllib.request.urlopen(
                handle.url + f"/debug/traces/{trace_id}?format=chrome", timeout=30
            ) as response:
                headers = dict(response.headers)
                payload = json.load(response)
            assert (
                headers["Content-Disposition"]
                == f'attachment; filename="repro-trace-{trace_id}.chrome.json"'
            )
            assert headers["Content-Type"] == "application/json"
            assert any(ev["name"] == "edge" for ev in payload["traceEvents"])
        finally:
            handle.stop()
