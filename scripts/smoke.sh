#!/usr/bin/env bash
# One-command smoke check: tier-1 tests, a quick CLI experiment run (serial
# and process execution backends), a serving batch-mode smoke (build ->
# cached re-query -> artifact validate), an HTTP front-end smoke (serve-http
# in the background -> cold/warm POST cycle -> background build poll ->
# a Content-Length: -5 frame answered 400 -> /metrics scrape with
# monotone-counter assertions + a scrape-interval self-test: two scrapes
# under traffic, counters monotone, gauges within bounds, exemplar
# annotations parsed and resolved via /debug/traces -> teardown even on
# failure), a sharded serve-http cycle (--shards 2: health
# poll, cold/warm POST, per-shard /stats assertions, the per-shard /metrics
# counters carrying the same values, trap teardown), a sampled serve-http cycle
# (1% head rate: sampler counters tick, /debug/slo reconciles with /stats,
# an SLO burn-rate artifact is recorded on shutdown and validated, and
# --slo-history, which starts the periodic SLO task, persists window rows
# to a JSONL file across the restart boundary), a
# chaos serve-http cycle (--shards 2 under a seeded --fault-plan injecting
# a worker hang, a worker crash and spill corruption, with a 500 ms
# hung-worker timeout: every request answered or failed fast with a
# structured error, non-degraded answers bit-identical to a serial oracle,
# hang/restart/fault counters on /stats, worker-side fault fires merged
# into /metrics, and a 1 ms X-Repro-Deadline-Ms probe answering a
# structured 504), the
# quick service_latency load-generator spec, the quick shard_scaling spec
# (cross-shard-count answer checksum identity), a streaming cold/warm cycle
# (sliding-window session -> artifact validate), a quick perf pass gated
# against the recorded results/perf_core.json baseline (cpu-normalised
# regression check + the >= speedup floor) with a trend row appended and
# validated, the repro report renderer (ASCII tables + capacity planning +
# the --slo burn-rate summary, zero third-party deps), and schema
# validation of every artifact — the freshly written ones and everything
# recorded under results/.  Intended as the CI entry point.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
ARTIFACT="${1:-/tmp/repro-smoke-table1.json}"
BACKEND_ARTIFACT="${2:-/tmp/repro-smoke-lis-process.json}"
SERVE_ARTIFACT="${3:-/tmp/repro-smoke-serve.json}"
SERVICE_ARTIFACT="${4:-/tmp/repro-smoke-service-throughput.json}"
STREAM_ARTIFACT="${5:-/tmp/repro-smoke-stream.json}"
STREAMING_ARTIFACT="${6:-/tmp/repro-smoke-streaming-throughput.json}"
PERF_ARTIFACT="${7:-/tmp/repro-smoke-perf.json}"
LATENCY_ARTIFACT="${8:-/tmp/repro-smoke-service-latency.json}"
SHARD_ARTIFACT="${9:-/tmp/repro-smoke-shard-scaling.json}"
TREND_LOG="${TREND_LOG:-/tmp/repro-smoke-perf-trend.jsonl}"
SERVE_HTTP_PORT="${SERVE_HTTP_PORT:-8077}"
SHARD_HTTP_PORT="${SHARD_HTTP_PORT:-8078}"
SLO_HTTP_PORT="${SLO_HTTP_PORT:-8079}"
CHAOS_HTTP_PORT="${CHAOS_HTTP_PORT:-8081}"
SLO_ARTIFACT="${SLO_ARTIFACT:-/tmp/repro-smoke-slo.json}"
SLO_HISTORY="${SLO_HISTORY:-/tmp/repro-smoke-slo-history.jsonl}"
CHAOS_PLAN="${CHAOS_PLAN:-/tmp/repro-smoke-fault-plan.json}"

SERVER_PID=""
cleanup() {
    # Tear the HTTP server down even when the smoke fails mid-flight.
    if [[ -n "${SERVER_PID}" ]] && kill -0 "${SERVER_PID}" 2>/dev/null; then
        kill -INT "${SERVER_PID}" 2>/dev/null || true
        wait "${SERVER_PID}" 2>/dev/null || true
    fi
}
trap cleanup EXIT

echo "== tier-1 test-suite =="
python -m pytest -x -q

echo
echo "== experiment registry =="
python -m repro list

echo
echo "== quick table1 run -> ${ARTIFACT} =="
python -m repro run table1 --quick --json "${ARTIFACT}"

echo
echo "== quick lis_rounds run on the process execution backend -> ${BACKEND_ARTIFACT} =="
python -m repro run lis_rounds --quick --backend process --json "${BACKEND_ARTIFACT}"

echo
echo "== quick service_throughput run (serial/thread/process grid) -> ${SERVICE_ARTIFACT} =="
python -m repro run service_throughput --quick --json "${SERVICE_ARTIFACT}"

echo
echo "== serve batch mode: build, cached re-query -> ${SERVE_ARTIFACT} =="
python -m repro serve --requests examples/service_requests.json --repeat 2 \
    --artifact "${SERVE_ARTIFACT}"

echo
echo "== serve-http cycle: background server, cold/warm POST, build poll =="
python -m repro serve-http --port "${SERVE_HTTP_PORT}" --duration 60 &
SERVER_PID=$!
python - "${SERVE_HTTP_PORT}" <<'EOF'
import json
import sys
import time
import urllib.request

port = sys.argv[1]
base = f"http://127.0.0.1:{port}"


def call(method, path, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


for attempt in range(100):
    try:
        call("GET", "/healthz")
        break
    except OSError:
        time.sleep(0.1)
else:
    sys.exit("serve-http did not come up within 10s")

document = {
    "schema": "repro.service.requests",
    "requests": [
        {"op": "lis_length", "id": "len", "workload": "random", "n": 1024, "seed": 7},
        {"op": "substring_query", "id": "sub", "workload": "random", "n": 1024,
         "seed": 7, "i": [0, 128], "j": [512, 1024]},
    ],
}
cold = call("POST", "/v2/batch", document)
assert cold["ok"] == 2 and cold["errors"] == 0, cold
assert not cold["results"][0]["cache_hit"], "cold POST unexpectedly hit the cache"
warm = call("POST", "/v2/batch", document)
assert all(entry["cache_hit"] for entry in warm["results"]), "warm POST missed the cache"
assert [e["result"] for e in cold["results"]] == [e["result"] for e in warm["results"]]

build = call("POST", "/builds", {"workload": "near_sorted", "n": 512, "seed": 5})
for attempt in range(200):
    record = call("GET", f"/builds/{build['token']}")
    if record["status"] in ("done", "failed"):
        break
    time.sleep(0.05)
assert record["status"] == "done", record

stats = call("GET", "/stats")
assert stats["requests"]["answered"] == 4, stats["requests"]
assert stats["builds"]["done"] == 1, stats["builds"]
assert stats["stats_schema"] == "repro.server.stats.v5", stats["stats_schema"]

# The codec answers a malformed frame with a prompt 400, not a traceback.
import socket

with socket.create_connection(("127.0.0.1", int(port)), timeout=30) as sock:
    sock.sendall(b"POST /v2/batch HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
    reply = sock.makefile("rb").read()
assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n"), reply[:200]

# /metrics exposition: key series present, counters monotone across scrapes.
from repro.obs.metrics import parse_exemplars, parse_prometheus_text


def scrape():
    with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
        assert response.headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = response.read().decode("utf-8")
        return parse_prometheus_text(text), text


first, _ = scrape()
for series in (
    "repro_http_requests_total",
    "repro_server_passes_total",
    "repro_service_requests_total",
    "repro_cache_lookups_total",
    "repro_index_builds_total",
    "repro_multiply_total",
    "repro_server_uptime_seconds",
    "repro_build_info",
    "repro_traces_sampled_total",
    "repro_trace_ring_occupancy",
):
    assert series in first, f"missing /metrics series {series}"
call("POST", "/v2/batch", document)
second, _ = scrape()
for series in (
    "repro_http_requests_total",
    "repro_server_passes_total",
    "repro_traces_sampled_total",
):
    before = sum(first[series].values())
    after = sum(second[series].values())
    assert after > before, f"{series} not monotone across scrapes ({before} -> {after})"

# Scrape-interval self-test: two scrapes a fixed interval apart while
# request traffic flows between them.  Counters must be monotone, gauges
# must stay within their physical bounds, and the exemplar annotations on
# the latency histogram must parse and cite retained traces.
scrape_a, _ = scrape()
for _ in range(4):
    call("POST", "/v2/batch", document)
time.sleep(0.25)
scrape_b, text_b = scrape()
for series in (
    "repro_http_requests_total",
    "repro_http_request_seconds_count",
    "repro_traces_sampled_total",
    "repro_cache_lookups_total",
):
    before = sum(scrape_a[series].values())
    after = sum(scrape_b[series].values())
    assert after >= before, f"{series} went backwards ({before} -> {after})"
assert sum(scrape_b["repro_http_requests_total"].values()) > sum(
    scrape_a["repro_http_requests_total"].values()
), "no requests counted between the two scrapes"
ring = sum(scrape_b["repro_trace_ring_occupancy"].values())
assert 0 <= ring <= 128, f"trace ring occupancy {ring} outside [0, capacity]"
uptime_a = sum(scrape_a["repro_server_uptime_seconds"].values())
uptime_b = sum(scrape_b["repro_server_uptime_seconds"].values())
assert uptime_b > uptime_a > 0, f"uptime gauge not advancing ({uptime_a} -> {uptime_b})"
exemplars = [
    record for record in parse_exemplars(text_b)
    if record["series"] == "repro_http_request_seconds_bucket"
]
assert exemplars, "no exemplar annotations on the latency histogram"
resolved = call("GET", f"/debug/traces/{exemplars[-1]['trace_id']}")
assert resolved["trace_id"] == exemplars[-1]["trace_id"], resolved

print(
    f"serve-http OK: {stats['requests']['answered']} answered, "
    f"cold->warm cache hit verified, Content-Length -5 -> 400, "
    f"background build {build['token']} done, /metrics monotone, "
    f"scrape self-test passed (ring occupancy {ring:g}, "
    f"{len(exemplars)} exemplar(s) parsed and resolved)"
)
EOF
kill -INT "${SERVER_PID}"
wait "${SERVER_PID}"
SERVER_PID=""

echo
echo "== sharded serve-http cycle (--shards 2): cold/warm POST, per-shard stats =="
python -m repro serve-http --port "${SHARD_HTTP_PORT}" --shards 2 --duration 60 &
SERVER_PID=$!
python - "${SHARD_HTTP_PORT}" <<'EOF'
import json
import sys
import time
import urllib.request

port = sys.argv[1]
base = f"http://127.0.0.1:{port}"


def call(method, path, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


for attempt in range(100):
    try:
        call("GET", "/healthz")
        break
    except OSError:
        time.sleep(0.1)
else:
    sys.exit("sharded serve-http did not come up within 10s")

# Several distinct fingerprints so both shards get routed traffic.
document = {
    "schema": "repro.service.requests",
    "requests": [
        {"op": "lis_length", "id": f"len{seed}", "workload": "random",
         "n": 512, "seed": seed}
        for seed in range(6)
    ] + [
        {"op": "lcs_length", "id": "lcs", "string_workload": "correlated_pair",
         "n": 128, "seed": 3},
    ],
}
cold = call("POST", "/v2/batch", document)
assert cold["ok"] == 7 and cold["errors"] == 0, cold
warm = call("POST", "/v2/batch", document)
assert all(entry["cache_hit"] for entry in warm["results"]), "warm POST missed the shard caches"
assert [e["result"] for e in cold["results"]] == [e["result"] for e in warm["results"]]

stats = call("GET", "/stats")
service = stats["service"]
assert stats["service_concurrency"] == 2, stats["service_concurrency"]
assert service["sharded"] and service["shards"] == 2, service
assert sum(service["load"]["per_shard_requests"]) == 14, service["load"]
assert service["load"]["shards_exercised"] == 2, service["load"]
assert service["restarts"] == 0, service["restarts"]
timings = service["router_timings"]
assert timings["shard_exec"]["total_seconds"] > 0.0, timings

# The per-shard counters reach /metrics with the values /stats reports
# (both read the router's registry).
from repro.obs.metrics import parse_prometheus_text

with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
    parsed = parse_prometheus_text(response.read().decode("utf-8"))
shard_series = parsed["repro_shard_requests_total"]
for shard_id, expected in enumerate(service["load"]["per_shard_requests"]):
    observed = shard_series[(("shard", str(shard_id)),)]
    assert observed == float(expected), (
        f"/metrics shard {shard_id} counter {observed} != /stats {expected}"
    )
assert "repro_shard_pipe_seconds_count" in parsed, "pipe timing histogram missing"

# A traced batch covers edge -> coalesce -> route -> worker -> answer.
trace_id = cold.get("trace_id") or warm.get("trace_id")
assert trace_id, "batch response carries no trace_id"
trace = call("GET", f"/debug/traces/{trace_id}")
names = {span["name"] for span in trace["spans"]}
assert {"edge", "coalesce", "route", "worker", "answer"} <= names, names
print(
    f"sharded serve-http OK: workers={service['workers']}, "
    f"per-shard requests={service['load']['per_shard_requests']} "
    f"(same on /metrics), trace {trace_id} spans={sorted(names)}, "
    f"cold->warm shard-cache hit verified"
)
EOF
kill -INT "${SERVER_PID}"
wait "${SERVER_PID}"
SERVER_PID=""

echo
echo "== sampled serve-http cycle (1% head rate): tail retention + SLO record =="
rm -f "${SLO_HISTORY}"
python -m repro serve-http --port "${SLO_HTTP_PORT}" --duration 60 \
    --trace-head-rate 0.01 --trace-tail-min-ms 250 \
    --slo-record "${SLO_ARTIFACT}" --slo-history "${SLO_HISTORY}" &
SERVER_PID=$!
python - "${SLO_HTTP_PORT}" <<'EOF'
import json
import sys
import time
import urllib.request

port = sys.argv[1]
base = f"http://127.0.0.1:{port}"


def call(method, path, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


for attempt in range(100):
    try:
        call("GET", "/healthz")
        break
    except OSError:
        time.sleep(0.1)
else:
    sys.exit("sampled serve-http did not come up within 10s")

document = {
    "schema": "repro.service.requests",
    "requests": [
        {"op": "lis_length", "id": "len", "workload": "random", "n": 512, "seed": 11},
    ],
}
for _ in range(20):
    assert call("POST", "/v2/batch", document)["errors"] == 0

stats = call("GET", "/stats")
tracing = stats["tracing"]
assert tracing["sampler"]["head_rate"] == 0.01, tracing["sampler"]
assert tracing["sampled_total"] + tracing["dropped_total"] >= 20, tracing
assert tracing["dropped_total"] > 0, "1% head sampling dropped nothing over 20 fast requests"

slo = call("GET", "/debug/slo")
assert slo["schema"] == "repro.server.slo", slo["schema"]
by_name = {entry["name"]: entry for entry in slo["objectives"]}
for name, summary in stats["slo"].items():
    assert by_name[name]["totals"]["total"] == summary["total"], (
        f"/debug/slo and /stats disagree on {name} totals"
    )
availability = by_name["batch-availability-99.9"]
assert availability["totals"]["total"] >= 20, availability["totals"]
assert availability["alerts"]["severity"] == "ok", availability["alerts"]
print(
    f"sampled serve-http OK: {tracing['dropped_total']} traces dropped at 1% head "
    f"rate, /debug/slo reconciles with /stats, severity=ok across objectives"
)
EOF
kill -INT "${SERVER_PID}"
wait "${SERVER_PID}"
SERVER_PID=""
test -s "${SLO_ARTIFACT}" || { echo "missing SLO artifact ${SLO_ARTIFACT}"; exit 1; }
test -s "${SLO_HISTORY}" || { echo "missing SLO history ${SLO_HISTORY}"; exit 1; }

echo
echo "== chaos serve-http cycle (--shards 2 + seeded fault plan): resilience =="
cat > "${CHAOS_PLAN}" <<'EOF'
{
  "seed": 42,
  "rules": [
    {"site": "worker.dispatch", "kind": "hang", "hits": [2],
     "delay_ms": 30000, "match": {"shard": 0}},
    {"site": "worker.dispatch", "kind": "crash", "hits": [3],
     "match": {"shard": 1}},
    {"site": "worker.dispatch", "kind": "delay", "hits": [1], "delay_ms": 50},
    {"site": "cache.spill_load", "kind": "corrupt", "probability": 0.5}
  ]
}
EOF
python -m repro serve-http --port "${CHAOS_HTTP_PORT}" --shards 2 --duration 60 \
    --worker-timeout-ms 500 --default-deadline-ms 30000 \
    --fault-plan "${CHAOS_PLAN}" &
SERVER_PID=$!
python - "${CHAOS_HTTP_PORT}" <<'EOF'
import json
import sys
import time
import urllib.error
import urllib.request

port = sys.argv[1]
base = f"http://127.0.0.1:{port}"


def call(method, path, payload=None, headers=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request_headers = {"Content-Type": "application/json"}
    if headers:
        request_headers.update(headers)
    request = urllib.request.Request(
        base + path, data=data, method=method, headers=request_headers
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.load(response)


for attempt in range(100):
    try:
        call("GET", "/healthz")
        break
    except OSError:
        time.sleep(0.1)
else:
    sys.exit("chaos serve-http did not come up within 10s")

# Several distinct fingerprints so both (faulty) shards see traffic; the
# same documents feed a serial in-process oracle for bit-identity.
documents = [
    {
        "schema": "repro.service.requests",
        "requests": [
            {"op": "lis_length", "id": f"r{burst}-{seed}", "workload": "random",
             "n": 256 + 64 * seed, "seed": seed}
            for seed in range(4)
        ],
    }
    for burst in range(4)
]
from repro.service import IndexCache, QueryService, parse_requests_document

oracle = QueryService(cache=IndexCache())
answered = 0
for document in documents:
    body = call("POST", "/v2/batch", document)
    assert len(body["results"]) == len(document["requests"]), body
    _, oracle_requests = parse_requests_document(document)
    expected = [o.result for o in oracle.submit(oracle_requests).outcomes]
    for entry, want in zip(body["results"], expected):
        answered += 1
        if entry["status"] == "ok" and not entry.get("degraded"):
            assert entry["result"] == want, (
                f"non-degraded answer diverged from the serial oracle: {entry}"
            )
        elif entry["status"] == "error":
            assert entry["error"], f"unstructured error entry: {entry}"
assert answered == sum(len(d["requests"]) for d in documents)

stats = call("GET", "/stats")
service = stats["service"]
resilience = service["resilience"]
assert resilience["fault_plan"] is not None, "fault plan not visible on /stats"
assert service["restarts"] >= 1, f"no worker restarts under chaos: {service['restarts']}"
assert resilience["hangs"] >= 1, f"hang never detected: {resilience}"
assert set(resilience["breakers"]) == {"0", "1"}, resilience["breakers"]

# Worker-side fault fires reach the merged /metrics exposition through the
# per-shard registry snapshots (a killed worker's counts die with it — the
# delay rule fires in every incarnation so survivors always carry one),
# and the per-shard hang series reaches /metrics with the /stats total.
with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
    text = response.read().decode("utf-8")
assert "repro_breaker_state" in text, "breaker state gauge missing from /metrics"
fired = sum(
    float(line.rsplit(None, 1)[1])
    for line in text.splitlines()
    if line.startswith("repro_faults_injected_total{")
)
assert fired >= 1.0, "no injected faults counted on /metrics"
hangs = sum(
    float(line.rsplit(None, 1)[1])
    for line in text.splitlines()
    if line.startswith("repro_shard_hangs_total{")
)
# Stats/metrics polls are worker dispatches too, so the count can advance
# between the two scrapes: bracket it instead of demanding equality.
after = call("GET", "/stats")["service"]["resilience"]["hangs"]
assert resilience["hangs"] <= hangs <= after, (
    f"/metrics hangs {hangs} outside [{resilience['hangs']}, {after}]"
)

# An expired budget answers a structured 504 instead of hanging.
tight = {
    "schema": "repro.service.requests",
    "requests": [
        {"op": "lis_length", "id": "tight", "workload": "random",
         "n": 4096, "seed": 99},
    ],
}
try:
    body = call("POST", "/v2/batch", tight, headers={"X-Repro-Deadline-Ms": "1"})
    status = 200
except urllib.error.HTTPError as exc:
    status = exc.code
    body = json.load(exc)
assert status in (200, 504), status
if status == 504:
    assert body["results"][0]["deadline_exceeded"], body

print(
    f"chaos serve-http OK: {answered} requests answered under seeded faults "
    f"(restarts={service['restarts']}, hangs={resilience['hangs']:g}, "
    f"faults fired={fired:g}), non-degraded answers oracle-identical, "
    f"hang series on /metrics"
)
EOF
kill -INT "${SERVER_PID}"
wait "${SERVER_PID}"
SERVER_PID=""

echo
echo "== quick service_latency load-generator run -> ${LATENCY_ARTIFACT} =="
python -m repro run service_latency --quick --json "${LATENCY_ARTIFACT}"

echo
echo "== quick shard_scaling run (answers shard-invariant) -> ${SHARD_ARTIFACT} =="
python -m repro run shard_scaling --quick --json "${SHARD_ARTIFACT}"

echo
echo "== quick streaming_throughput run (serial/thread/process grid) -> ${STREAMING_ARTIFACT} =="
python -m repro run streaming_throughput --quick --json "${STREAMING_ARTIFACT}"

echo
echo "== stream cold/warm cycle: warm build, sliding ticks -> ${STREAM_ARTIFACT} =="
python -m repro stream --window 512 --ticks 4 --slide 64 --seed 7 \
    --artifact "${STREAM_ARTIFACT}"
python -m repro stream --session lcs --window 128 --ticks 3 --slide 16 --seed 7

echo
echo "== quick perf pass, gated against results/perf_core.json -> ${PERF_ARTIFACT} =="
rm -f "${TREND_LOG}"  # append-only log: start fresh so the row count below is exact
python -m repro perf --quick --json "${PERF_ARTIFACT}" --record-trend "${TREND_LOG}"

echo
echo "== perf trend log validation (${TREND_LOG} + recorded results/perf_trend.jsonl) =="
python - "${TREND_LOG}" <<'EOF'
import os
import sys

from repro.perf.trend import load_trend

fresh = load_trend(sys.argv[1])
assert len(fresh) == 1 and fresh[0]["normalized"], fresh
recorded = "results/perf_trend.jsonl"
if os.path.exists(recorded):
    rows = load_trend(recorded)
    assert rows, "recorded trend log is empty"
    print(f"trend OK: 1 fresh row, {len(rows)} recorded row(s) validated")
else:
    print("trend OK: 1 fresh row validated (no recorded log)")
EOF

echo
echo "== repro report: recorded artifacts + trend + capacity + SLO (ASCII only) =="
python -m repro report --trend --capacity 500 --slo > /tmp/repro-smoke-report.txt
grep -q "capacity plan for 500" /tmp/repro-smoke-report.txt
grep -q "perf trend" /tmp/repro-smoke-report.txt
grep -q "SLO burn-rate summary" /tmp/repro-smoke-report.txt
python -m repro report --slo "${SLO_ARTIFACT}" > /tmp/repro-smoke-slo-report.txt
grep -q "burn_5m" /tmp/repro-smoke-slo-report.txt
echo "report OK: $(wc -l < /tmp/repro-smoke-report.txt) lines rendered (+ SLO summary)"

echo
echo "== artifact schema validation (fresh runs + everything in results/) =="
python -m repro validate "${ARTIFACT}"
python -m repro validate "${BACKEND_ARTIFACT}"
python -m repro validate "${SERVICE_ARTIFACT}"
python -m repro validate "${SERVE_ARTIFACT}"
python -m repro validate "${STREAMING_ARTIFACT}"
python -m repro validate "${STREAM_ARTIFACT}"
python -m repro validate "${PERF_ARTIFACT}"
python -m repro validate "${LATENCY_ARTIFACT}"
python -m repro validate "${SHARD_ARTIFACT}"
python -m repro validate "${SLO_ARTIFACT}"
for recorded in results/*.json; do
    python -m repro validate "${recorded}"
done

echo
echo "smoke: OK"
