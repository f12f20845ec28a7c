"""The benchmark's own tests: seeded inputs, percentiles, failure counting.

Run from the root of a checkout: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import socketserver
import threading

import numpy as np
import pytest

from perfbench import common

common.require_program()

from perfbench import httpclient, inputs, tracing, workloads  # noqa: E402
from perfbench.oracle import Oracle, strict_ranks  # noqa: E402


def _all_inputs(seed):
    targets = inputs.warm_targets(seed)
    return {
        "targets": json.dumps(targets, sort_keys=True).encode(),
        "setup": inputs.warm_setup_body(targets),
        "pool": b"".join(inputs.warm_pool(seed, targets)),
        "cold": b"".join(inputs.cold_body(seed, k) for k in range(3)),
        "cold_setup": inputs.cold_body(seed, 0, setup=True),
        "solver": b"".join(seq.tobytes() for seq in inputs.mpc_inputs(seed)),
    }


def test_same_seed_same_bytes_other_seed_other_bytes():
    first, again, other = _all_inputs(5), _all_inputs(5), _all_inputs(6)
    for key in first:
        assert first[key] == again[key], key
        assert first[key] != other[key], key


def test_cold_bodies_never_repeat_a_sequence():
    sequences = [
        json.dumps(json.loads(inputs.cold_body(3, k))["requests"][0]["sequence"])
        for k in range(6)
    ] + [
        json.dumps(json.loads(inputs.cold_body(3, k, setup=True))["requests"][0]["sequence"])
        for k in range(3)
    ]
    assert len(set(sequences)) == len(sequences)


@pytest.mark.parametrize("size", [1, 2, 7, 100])
def test_percentile_matches_numpy(size):
    values = np.random.default_rng(size).normal(size=size).tolist()
    for q in (0, 10, 50, 90, 99, 100):
        assert common.percentile(values, q) == pytest.approx(np.percentile(values, q), abs=1e-12)


def test_strict_ranks_order_ties_by_decreasing_position():
    assert strict_ranks([5, 1, 5, 0]) == [3, 1, 2, 0]


def test_self_time_excludes_children_and_counts_outer_calls():
    spans = [
        ("core.multiply", 1.0, 2.0, 3, 2, 7),  # nested in its own layer
        ("core.dense", 1.2, 1.5, 4, 3, 7),
        ("core.multiply", 0.5, 2.5, 2, 1, 7),
        ("lis.semilocal", 0.0, 3.0, 1, None, 7),
    ]
    row = tracing.aggregate(spans)[7]
    assert row["lis.semilocal"] == pytest.approx(1.0)
    assert row["core.multiply"] == pytest.approx(1.7)
    assert row["core.dense"] == pytest.approx(0.3)
    assert row["core.multiply.calls"] == 1
    assert row["root_seconds"] == pytest.approx(3.0)


class _StubHandler(socketserver.StreamRequestHandler):
    """Answers op 1 wrongly, op 2 with 429 and drops op 3; the rest correctly."""

    oracle = Oracle()

    def handle(self):
        headers = {}
        self.rfile.readline()
        while True:
            line = self.rfile.readline().decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.lower()] = value.strip()
        body = self.rfile.read(int(headers["content-length"]))
        op = int(headers["x-bench-op"])
        if op == 3:
            return
        expected = self.oracle.expected(body)
        if op == 1:
            expected["len"] += 1
        payload = json.dumps(
            {"results": [{"id": k, "status": "ok", "result": v} for k, v in expected.items()]}
        ).encode()
        status = "429 Too Many Requests" if op == 2 else "200 OK"
        self.wfile.write(
            f"HTTP/1.1 {status}\r\nContent-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n".encode() + payload
        )


def test_stub_server_failures_count_exactly_three():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        body_for = lambda k: inputs.cold_body(11, k)  # noqa: E731
        records, _, _ = httpclient.closed_loop(
            server.server_address[1], body_for, connections=1, max_ops=6
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    outcome = workloads.Outcome()
    good = workloads.score(records, body_for, Oracle(), outcome)
    assert (outcome.attempted, outcome.failed) == (6, 3)
    assert sorted(good) == [0, 4, 5]


def test_printed_metrics_are_the_ones_benchmark_json_declares():
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    outcome = workloads.Outcome()
    workloads._layer_metrics(outcome, "any", [{"server.handle": 0.001}], [0.002], {}, 1.0)
    assert set(outcome.metrics) == {m["name"] for m in bench["per_layer"]}
    end_to_end = set(common.op_summary([0.1, 0.2], 1.0, 2)) | {"setup_s", "peak_rss_mb"}
    assert end_to_end == {m["name"] for m in bench["end_to_end"]}
