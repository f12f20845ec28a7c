"""Tests for latency exemplars, span events and the Chrome trace export.

The contracts this file pins:

* exemplar annotations on ``/metrics`` parse, survive snapshot merges
  (latest timestamp wins), never confuse the Prometheus text parser, and
  resolve to traces in the ring via ``/debug/traces/<id>`` — every
  completed ``/v2/batch`` trace enters the ring;
* span events ride inside spans, export to Chrome instant events, and the
  chrome export download carries a stable Content-Disposition filename.
"""

import json
import time
import urllib.request

from repro.obs.metrics import (
    MetricsRegistry,
    merge_snapshots,
    parse_exemplars,
    parse_prometheus_text,
    render_prometheus,
)
from repro.obs.trace import Tracer, span, span_event
from repro.server import get_json, post_json, start_server


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

    def test_metrics_exemplars_resolve_to_retained_traces(self):
        handle = start_server()
        try:
            trace_ids = []
            for i in range(3):
                status, _, body = post_json(handle.url + "/v2/batch", _doc(f"r{i}", seed=i))
                assert status == 200
                trace_ids.append(body["trace_id"])

            # Every completed batch trace enters the ring.
            status, _, listing = get_json(handle.url + "/debug/traces")
            assert status == 200
            assert [entry["trace_id"] for entry in listing["traces"]] == trace_ids[::-1]
            assert listing["started"] == listing["retained"] == 3

            with urllib.request.urlopen(handle.url + "/metrics", timeout=30) as response:
                text = response.read().decode("utf-8")
            records = [
                record
                for record in parse_exemplars(text)
                if record["series"] == "repro_http_request_seconds_bucket"
                and ("route", "/v2/batch") in record["labels"]
            ]
            assert records, "a retained trace must leave an exemplar on /metrics"
            cited = {record["trace_id"] for record in records}
            assert cited <= set(trace_ids)
            for trace_id in cited:
                status, _, doc = get_json(handle.url + f"/debug/traces/{trace_id}")
                assert status == 200 and doc["trace_id"] == trace_id

            # The JSON surface agrees with the text surface.
            status, _, debug = get_json(handle.url + "/debug/exemplars")
            assert status == 200
            assert debug["schema"] == "repro.server.exemplars"
            by_id = {record["trace_id"]: record for record in debug["exemplars"]}
            assert cited <= set(by_id)
            assert all(by_id[trace_id]["retained"] is True for trace_id in cited)
        finally:
            handle.stop()


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


# ------------------------------------------------- chrome export download
class TestChromeDownloadHeader:
    def test_content_disposition_names_the_trace(self):
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
