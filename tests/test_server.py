"""Tests for the HTTP front-end (:mod:`repro.server`).

The concurrency harness every later scaling PR regresses against:

* bit-identity — N concurrent clients through the server must match serial
  :class:`QueryService` evaluation exactly, with coalescing counters
  proving duplicate-fingerprint queries actually merged;
* fault injection — a failing index build yields a structured error for
  its group only, the server stays up, and the in-flight pass map is
  cleaned (no poisoned fingerprint);
* backpressure — past ``max_inflight`` the server answers 429 +
  ``Retry-After``, keeps honest queue stats, and drops nothing silently;
* the codec — every malformed, oversized, truncated or stalled request gets
  one complete 4xx response within the read deadline, never a traceback, a
  silent close or a hang.
"""

import json
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from http import HTTPStatus

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.server.transport as transport_module
import repro.service.serving as serving_module
from repro.experiments import get_spec, run_experiment
from repro.server import get_json, post_json, run_load, start_server
from repro.service import IndexCache, QueryService, parse_requests_document


def _wait_build(url, token, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, record = get_json(f"{url}/builds/{token}")
        assert status == 200
        if record["status"] in ("done", "failed"):
            return record
        time.sleep(0.02)
    raise AssertionError(f"build {token} did not settle within {timeout}s")


def _mixed_documents():
    """Eight mixed batch documents over a handful of shared targets.

    Several documents hit the same (target, kind) groups so concurrent
    clients genuinely contend on the same fingerprints.
    """
    sequence = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]
    documents = []
    for variant in range(8):
        requests = [
            {"op": "lis_length", "id": "len", "workload": "random", "n": 512, "seed": 7},
            {
                "op": "substring_query",
                "id": "sub",
                "workload": "random",
                "n": 512,
                "seed": 7,
                "i": [variant * 8, variant * 16],
                "j": [256 + variant * 8, 512],
            },
            {
                "op": "rank_interval_query",
                "id": "rank",
                "sequence": sequence,
                "x": variant % 4,
                "y": 8 + variant % 8,
            },
            {
                "op": "lcs_length",
                "id": "lcs",
                "string_workload": "correlated_pair",
                "n": 128,
                "seed": 3,
            },
            {
                "op": "window_sweep",
                "id": "sweep",
                "workload": "near_sorted",
                "n": 256,
                "seed": 5,
                "width": 64 + 8 * variant,
                "step": 32,
            },
        ]
        documents.append(
            {"schema": "repro.service.requests", "version": 2, "requests": requests}
        )
    return documents


def _serial_answers(documents):
    """The oracle: every document through a fresh, single-threaded service."""
    oracle = QueryService(cache=IndexCache())
    answers = []
    for document in documents:
        _, requests = parse_requests_document(document)
        batch = oracle.submit(requests)
        answers.append([outcome.result for outcome in batch.outcomes])
    return answers


# ---------------------------------------------------------------- plumbing
class TestRoutes:
    def test_health_stats_and_errors(self):
        handle = start_server()
        try:
            status, _, body = get_json(handle.url + "/healthz")
            assert status == 200 and body["status"] == "ok"

            status, _, stats = get_json(handle.url + "/stats")
            assert status == 200
            assert stats["schema"] == "repro.server.stats"
            assert stats["requests"]["received"] == 0

            status, _, body = get_json(handle.url + "/nope")
            assert status == 404 and "error" in body

            status, _, body = post_json(handle.url + "/healthz", {})
            assert status in (400, 404)  # no POST route at /healthz

            status, _, body = post_json(handle.url + "/v2/batch", None)
            assert status == 400

            import urllib.request

            request = urllib.request.Request(
                handle.url + "/v2/batch",
                data=b"{not json",
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=10) as response:
                    status = response.status
            except Exception as exc:  # noqa: BLE001
                status = exc.code
            assert status == 400
        finally:
            handle.stop()

    def test_batch_answers_match_cli_serve_semantics(self):
        handle = start_server()
        try:
            document = _mixed_documents()[0]
            status, _, body = post_json(handle.url + "/v2/batch", document)
            assert status == 200
            assert body["schema"] == "repro.server.batch" and body["version"] == 2
            assert body["ok"] == 5 and body["errors"] == 0
            (expected,) = _serial_answers([document])
            observed = [entry["result"] for entry in body["results"]]
            assert observed == expected
            # Warm resubmission hits the cache for every request.
            status, _, warm = post_json(handle.url + "/v2/batch", document)
            assert status == 200
            assert all(entry["cache_hit"] for entry in warm["results"])
        finally:
            handle.stop()


# ---------------------------------------------------- concurrency bit-identity
class TestConcurrentBitIdentity:
    def test_32_tasks_match_serial_oracle_with_coalescing(self):
        documents = _mixed_documents()
        expected = _serial_answers(documents)
        handle = start_server(max_inflight=256)
        try:
            results = [None] * 32

            def worker(slot):
                variant = slot % len(documents)
                results[slot] = (variant, post_json(handle.url + "/v2/batch", documents[variant]))

            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(32)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            for variant, (status, _, body) in results:
                assert status == 200, body
                assert body["errors"] == 0
                observed = [entry["result"] for entry in body["results"]]
                assert observed == expected[variant], (
                    f"variant {variant} diverged from the serial oracle"
                )

            _, _, stats = get_json(handle.url + "/stats")
            coalescing = stats["coalescing"]
            assert coalescing["merged_passes"] >= 1, (
                f"no pass merged concurrent requests: {coalescing}"
            )
            assert coalescing["coalesced_requests"] >= 1
            assert coalescing["failed_passes"] == 0
            assert coalescing["inflight_fingerprints"] == 0  # map fully drained
            assert stats["requests"]["received"] == 32 * 5
            assert stats["requests"]["answered"] == 32 * 5
            assert stats["requests"]["failed"] == 0
            # Coalescing genuinely saved work: fewer passes than request groups.
            assert coalescing["passes"] < 32 * 5
            timings = stats["timings"]
            assert timings["answer"]["count"] == 32 * 5
            # The histogram is observed once per request, so its mean is the
            # mean of the pass_seconds the 160 result entries carry.
            pass_seconds = [
                entry["pass_seconds"]
                for _, (_, _, body) in results
                for entry in body["results"]
            ]
            assert len(pass_seconds) == 32 * 5
            assert timings["answer"]["mean_seconds"] == pytest.approx(
                sum(pass_seconds) / len(pass_seconds)
            )
        finally:
            handle.stop()

    def test_stats_timings_are_per_request_and_match_metrics(self):
        """One POST of 8 same-target requests runs one pass of 8 requests.

        ``/stats`` and ``/metrics`` read one histogram, observed once per
        request: both count 8, and the mean is the pass time every result
        entry reports (not the pass time divided by the group size).
        """
        from repro.obs.metrics import parse_prometheus_text

        document = {
            "schema": "repro.service.requests",
            "requests": [
                {"op": "substring_query", "id": f"w{k}", "workload": "random",
                 "n": 256, "seed": 5, "i": [k], "j": [128 + k]}
                for k in range(8)
            ],
        }
        handle = start_server()
        try:
            status, _, body = post_json(handle.url + "/v2/batch", document)
            assert status == 200 and body["ok"] == 8
            pass_seconds = {entry["pass_seconds"] for entry in body["results"]}
            assert len(pass_seconds) == 1, "8 same-target requests share one pass"

            _, _, stats = get_json(handle.url + "/stats")
            answer = stats["timings"]["answer"]
            assert stats["coalescing"]["passes"] == 1
            assert answer["count"] == 8
            assert answer["mean_seconds"] == pytest.approx(pass_seconds.pop())
            assert answer["p99_seconds"] > 0.0

            import urllib.request

            with urllib.request.urlopen(handle.url + "/metrics", timeout=30) as response:
                metrics = parse_prometheus_text(response.read().decode("utf-8"))
            assert metrics["repro_server_answer_seconds_count"][()] == answer["count"]
        finally:
            handle.stop()

    def test_closed_loop_load_generator_matches_oracle(self):
        documents = _mixed_documents()[:4]
        expected = _serial_answers(documents)
        handle = start_server()
        try:
            report = run_load(
                handle.url, documents, pattern="closed", total=24, concurrency=6
            )
            assert report.ok == 24 and report.failed == 0 and report.rejected == 0
            for variant, observed_lists in report.answers.items():
                for observed in observed_lists:
                    assert observed == expected[variant]
            assert report.qps > 0 and report.p50_ms > 0
        finally:
            handle.stop()


# ------------------------------------------------------------- fault injection
class TestFaultInjection:
    def test_failing_build_is_isolated_and_server_recovers(self, monkeypatch):
        handle = start_server()
        try:
            lis_doc = {
                "schema": "repro.service.requests",
                "requests": [
                    {"op": "lis_length", "id": "q-lis", "workload": "random", "n": 128, "seed": 42},
                    {"op": "lcs_length", "id": "q-lcs", "s": [1, 2, 3, 4], "t": [2, 3, 4, 5]},
                ],
            }

            real_builder = serving_module.build_lis_index

            def exploding_builder(*args, **kwargs):
                raise RuntimeError("injected build failure")

            monkeypatch.setattr(serving_module, "build_lis_index", exploding_builder)
            status, _, body = post_json(handle.url + "/v2/batch", lis_doc)
            assert status == 200  # the batch answers; the group fails
            by_id = {entry["id"]: entry for entry in body["results"]}
            assert by_id["q-lis"]["status"] == "error"
            assert "injected build failure" in by_id["q-lis"]["error"]
            # The LCS group shares the batch but not the failure.
            assert by_id["q-lcs"]["status"] == "ok"
            assert by_id["q-lcs"]["result"] == 3

            _, _, stats = get_json(handle.url + "/stats")
            assert stats["coalescing"]["failed_passes"] >= 1
            assert stats["coalescing"]["inflight_fingerprints"] == 0  # not poisoned

            # Server stays up and, once the builder is healthy, the same
            # fingerprint serves fine (the pending map held no corpse).
            monkeypatch.setattr(serving_module, "build_lis_index", real_builder)
            status, _, body = post_json(handle.url + "/v2/batch", lis_doc)
            assert status == 200
            by_id = {entry["id"]: entry for entry in body["results"]}
            assert by_id["q-lis"]["status"] == "ok"
            assert isinstance(by_id["q-lis"]["result"], int)
        finally:
            handle.stop()

    def test_failure_propagates_to_every_coalesced_contributor(self, monkeypatch):
        handle = start_server()
        try:
            def exploding_builder(*args, **kwargs):
                time.sleep(0.05)
                raise RuntimeError("injected build failure")

            monkeypatch.setattr(serving_module, "build_lis_index", exploding_builder)
            document = {
                "schema": "repro.service.requests",
                "requests": [
                    {"op": "lis_length", "id": "q", "workload": "random", "n": 64, "seed": 99}
                ],
            }
            results = []

            def worker():
                results.append(post_json(handle.url + "/v2/batch", document))

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for status, _, body in results:
                assert status == 200
                assert body["results"][0]["status"] == "error"
                assert "injected build failure" in body["results"][0]["error"]
            _, _, stats = get_json(handle.url + "/stats")
            assert stats["coalescing"]["inflight_fingerprints"] == 0
            assert stats["requests"]["failed"] == 6
        finally:
            handle.stop()

    def test_failing_background_build_is_recorded(self, monkeypatch):
        handle = start_server()
        try:
            def exploding_builder(*args, **kwargs):
                raise RuntimeError("injected background failure")

            monkeypatch.setattr(serving_module, "build_lis_index", exploding_builder)
            status, _, body = post_json(
                handle.url + "/builds", {"workload": "random", "n": 64, "seed": 1}
            )
            assert status == 200
            record = _wait_build(handle.url, body["token"])
            assert record["status"] == "failed"
            assert "injected background failure" in record["error"]
            _, _, stats = get_json(handle.url + "/stats")
            assert stats["builds"]["failed"] == 1
            # Still serving.
            status, _, body = get_json(handle.url + "/healthz")
            assert status == 200
        finally:
            handle.stop()


# --------------------------------------------------------------- backpressure
class TestBackpressure:
    def test_429_with_retry_after_and_honest_stats(self, monkeypatch):
        real_builder = serving_module.build_lis_index

        def slow_builder(*args, **kwargs):
            time.sleep(0.25)
            return real_builder(*args, **kwargs)

        monkeypatch.setattr(serving_module, "build_lis_index", slow_builder)
        handle = start_server(max_inflight=2, retry_after_seconds=0.5)
        try:
            results = []
            lock = threading.Lock()

            def worker(seed):
                # Unique seeds => unique fingerprints => no coalescing escape
                # hatch; every admitted request occupies the service thread.
                document = {
                    "schema": "repro.service.requests",
                    "requests": [
                        {"op": "lis_length", "id": f"s{seed}", "workload": "random",
                         "n": 64, "seed": seed}
                    ],
                }
                outcome = post_json(handle.url + "/v2/batch", document)
                with lock:
                    results.append(outcome)

            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            statuses = [status for status, _, _ in results]
            assert len(statuses) == 8  # nothing silently dropped
            assert statuses.count(429) >= 1, f"no backpressure at max_inflight=2: {statuses}"
            assert statuses.count(200) >= 1
            assert statuses.count(200) + statuses.count(429) == 8
            for status, headers, body in results:
                if status == 429:
                    assert int(headers["Retry-After"]) >= 1
                    assert "capacity" in body["error"]

            _, _, stats = get_json(handle.url + "/stats")
            assert stats["peak_inflight"] <= 2
            assert stats["inflight"] == 0
            assert stats["requests"]["rejected"] == statuses.count(429)
            assert stats["requests"]["answered"] == statuses.count(200)

            # The server recovers once load subsides.
            status, _, body = post_json(
                handle.url + "/v2/batch",
                {"schema": "repro.service.requests",
                 "requests": [{"op": "lis_length", "workload": "random", "n": 64, "seed": 0}]},
            )
            assert status == 200 and body["ok"] == 1
        finally:
            handle.stop()

    def test_oversized_batch_is_a_client_error_not_backpressure(self):
        handle = start_server(max_inflight=2)
        try:
            document = {
                "schema": "repro.service.requests",
                "requests": [
                    {"op": "lis_length", "id": f"r{k}", "workload": "random", "n": 32, "seed": k}
                    for k in range(3)
                ],
            }
            status, headers, body = post_json(handle.url + "/v2/batch", document)
            assert status == 400
            assert "exceeds --max-inflight" in body["error"]
            assert "Retry-After" not in headers  # not retriable at this size
        finally:
            handle.stop()

    def test_build_queue_limit_returns_429(self, monkeypatch):
        real_builder = serving_module.build_lis_index

        def slow_builder(*args, **kwargs):
            time.sleep(0.3)
            return real_builder(*args, **kwargs)

        monkeypatch.setattr(serving_module, "build_lis_index", slow_builder)
        handle = start_server(build_queue_limit=2)
        try:
            statuses = []
            tokens = []
            for seed in range(4):
                status, _, body = post_json(
                    handle.url + "/builds", {"workload": "random", "n": 64, "seed": 100 + seed}
                )
                statuses.append(status)
                if status == 200:
                    tokens.append(body["token"])
            assert statuses.count(200) == 2
            assert statuses.count(429) == 2
            for token in tokens:
                assert _wait_build(handle.url, token)["status"] == "done"
        finally:
            handle.stop()


# -------------------------------------------------------------------- codec
#: Read deadline while the codec tests run, so stalled requests time out fast.
_TEST_READ_TIMEOUT_S = 0.3
_KIB = 1024
_VALID_BODY = json.dumps(
    {
        "schema": "repro.service.requests",
        "version": 2,
        "requests": [{"op": "lis_length", "id": "q", "sequence": [3, 1, 4, 1, 5, 9, 2, 6]}],
    }
).encode("utf-8")


def _raw_request(content_length=None, extra_headers=(), body=_VALID_BODY):
    """A ``POST /v2/batch`` built by hand, so its framing can be broken."""
    length = len(body) if content_length is None else content_length
    lines = ["POST /v2/batch HTTP/1.1", "Host: 127.0.0.1", f"Content-Length: {length}"]
    lines.extend(extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("utf-8") + body


def _raw_exchange(port, data, half_close=True):
    """Send ``data`` on a new connection; ``(reply, seconds until the server closed)``."""
    started = time.monotonic()
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks), time.monotonic() - started


def _status_of_one_response(reply):
    """The status of ``reply``, which must be exactly one complete HTTP/1.1 response."""
    head, blank, body = reply.partition(b"\r\n\r\n")
    assert blank, f"no complete response head in {reply[:200]!r}"
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    version, code, phrase = status_line.split(" ", 2)
    assert version == "HTTP/1.1", status_line
    assert phrase == HTTPStatus(int(code)).phrase, status_line
    headers = dict(line.split(": ", 1) for line in header_lines)
    assert headers["Connection"] == "close"
    assert int(headers["Content-Length"]) == len(body), "body is not exactly one response"
    return int(code)


def _assert_no_asyncio_errors(caplog):
    errors = [r for r in caplog.records if r.name == "asyncio" and r.levelno >= logging.ERROR]
    assert not errors, [r.getMessage() for r in errors]


@pytest.fixture(scope="module")
def codec_server():
    handle = start_server()
    yield handle
    handle.stop()


_CUT_SHORT = _raw_request(content_length=1000, body=_VALID_BODY[:60])
_CODEC_CASES = {
    "negative_content_length": (_raw_request(content_length=-5), True, 400),
    "non_numeric_content_length": (_raw_request(content_length="abc"), True, 400),
    "body_stalls": (_CUT_SHORT, False, 408),
    "head_never_ends": (b"POST /v2/batch HTTP/1.1\r\nHost: 127.0.0.1\r\n", False, 408),
    "body_cut_short_then_eof": (_CUT_SHORT, True, 400),
    "long_header_line": (_raw_request(extra_headers=["X-Long: " + "a" * 70 * _KIB]), True, 431),
    "long_request_line": (b"GET /" + b"a" * 70 * _KIB + b" HTTP/1.1\r\n\r\n", True, 431),
    "head_over_limit": (
        _raw_request(extra_headers=[f"X-Fill-{k}: " + "a" * 2 * _KIB for k in range(40)]),
        True,
        431,
    ),
    "garbage_request_line": (b"GARBAGE\r\n\r\n", True, 400),
    "content_length_over_limit": (_raw_request(content_length=99999999999), True, 413),
}


class TestCodec:
    @pytest.mark.parametrize("case", sorted(_CODEC_CASES))
    def test_malformed_request_gets_prompt_status(self, case, codec_server, monkeypatch, caplog):
        monkeypatch.setattr(transport_module, "_READ_TIMEOUT_S", _TEST_READ_TIMEOUT_S)
        data, half_close, expected = _CODEC_CASES[case]
        reply, seconds = _raw_exchange(codec_server.port, data, half_close=half_close)
        assert _status_of_one_response(reply) == expected, reply[:200]
        assert seconds < _TEST_READ_TIMEOUT_S + 1.0
        # The server still answers a valid batch on a new connection.
        reply, _ = _raw_exchange(codec_server.port, _raw_request())
        assert _status_of_one_response(reply) == 200
        _assert_no_asyncio_errors(caplog)

    def test_connection_closed_without_a_request_gets_no_reply(self, codec_server):
        reply, _ = _raw_exchange(codec_server.port, b"")
        assert reply == b""

    def test_mutated_framing_fuzz(self, codec_server, monkeypatch, caplog):
        monkeypatch.setattr(transport_module, "_READ_TIMEOUT_S", _TEST_READ_TIMEOUT_S)
        allowed = {200, 400, 404, 405, 408, 413, 431}
        header_line = st.one_of(
            st.just(""),
            st.integers(1, 70 * _KIB).map(lambda size: "X-Long: " + "a" * size),
            st.text(min_size=1, max_size=24).map(lambda text: "X-Text: " + text),
            st.text(min_size=1, max_size=24),
        )
        content_length = st.one_of(
            st.integers(-(10**12), 10**12), st.text(max_size=24), st.just("9" * 5000)
        )

        @st.composite
        def mutated_requests(draw):
            length = draw(content_length) if draw(st.booleans()) else len(_VALID_BODY)
            lines = ["POST /v2/batch HTTP/1.1", "Host: 127.0.0.1", f"Content-Length: {length}"]
            for line in draw(st.lists(header_line, max_size=2)):
                lines.insert(draw(st.integers(1, len(lines))), line)
            data = ("\r\n".join(lines) + "\r\n\r\n").encode("utf-8") + _VALID_BODY
            if draw(st.booleans()):
                at = draw(st.integers(0, len(data)))
                data = data[:at] + draw(st.binary(min_size=1, max_size=64)) + data[at:]
            if draw(st.booleans()):
                data = data[: draw(st.integers(1, len(data)))]
            return data

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(data=mutated_requests())
        def exchange(data):
            reply, seconds = _raw_exchange(codec_server.port, data)
            assert _status_of_one_response(reply) in allowed, reply[:200]
            assert seconds < _TEST_READ_TIMEOUT_S + 1.0

        exchange()
        reply, _ = _raw_exchange(codec_server.port, _raw_request())
        assert _status_of_one_response(reply) == 200
        _assert_no_asyncio_errors(caplog)


# ------------------------------------------------------------------- builds
class TestBuilds:
    def test_background_build_then_cache_hit(self):
        handle = start_server()
        try:
            status, _, body = post_json(
                handle.url + "/builds",
                {"workload": "random", "n": 256, "seed": 7, "kind": "lis:position"},
            )
            assert status == 200 and body["status"] == "queued"
            record = _wait_build(handle.url, body["token"])
            assert record["status"] == "done"
            assert record["cache_hit"] is False
            assert record["kind"] == "lis:position"
            assert len(record["fingerprint"]) == 64

            # A query against the pre-built target is a pure cache hit.
            status, _, answer = post_json(
                handle.url + "/v2/batch",
                {"schema": "repro.service.requests",
                 "requests": [{"op": "lis_length", "workload": "random", "n": 256, "seed": 7}]},
            )
            assert status == 200
            assert answer["results"][0]["cache_hit"] is True
            assert answer["results"][0]["index_fingerprint"] == record["fingerprint"]

            status, _, listing = get_json(handle.url + "/builds")
            assert status == 200 and len(listing["builds"]) == 1
        finally:
            handle.stop()

    def test_build_validation_errors(self):
        handle = start_server()
        try:
            status, _, body = post_json(handle.url + "/builds", {"workload": "random", "n": 64, "kind": "bogus"})
            assert status == 400 and "unknown index kind" in body["error"]
            status, _, body = post_json(handle.url + "/builds", {"op": "x"})
            assert status == 400
            status, _, body = get_json(handle.url + "/builds/b999")
            assert status == 404
        finally:
            handle.stop()


# ----------------------------------------------------------------- sessions
class TestSessions:
    def test_lis_session_lifecycle(self):
        from repro.lis import lis_length

        handle = start_server()
        try:
            values = [3, 1, 4, 1, 5, 9, 2, 6]
            status, _, state = post_json(
                handle.url + "/sessions", {"kind": "lis", "window": 6, "push": values}
            )
            assert status == 200
            sid = state["id"]
            assert state["size"] == 6  # window cap applied
            assert state["answer"] == lis_length(values[-6:])

            status, _, state = post_json(
                handle.url + f"/sessions/{sid}/push", {"symbols": [7, 8]}
            )
            assert status == 200
            assert state["dropped"] == 2
            assert state["answer"] == lis_length((values + [7, 8])[-6:])
            assert state["ticks"] == 2

            status, _, fetched = get_json(handle.url + f"/sessions/{sid}")
            assert status == 200 and fetched["answer"] == state["answer"]

            status, _, listing = get_json(handle.url + "/sessions")
            assert status == 200 and len(listing["sessions"]) == 1

            status, _, gone = post_json(handle.url + f"/sessions/{sid}/push", {"symbols": []})
            assert status == 400

            import urllib.request

            request = urllib.request.Request(
                handle.url + f"/sessions/{sid}", method="DELETE"
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                deleted = json.load(response)
            assert deleted["status"] == "deleted"
            status, _, _ = get_json(handle.url + f"/sessions/{sid}")
            assert status == 404
        finally:
            handle.stop()

    def test_lcs_session_against_dp_oracle(self):
        from repro.lcs import lcs_length_dp
        from repro.workloads import make_string_pair

        handle = start_server()
        try:
            s, t = make_string_pair("correlated_pair", 48, seed=3)
            status, _, state = post_json(
                handle.url + "/sessions",
                {"kind": "lcs", "string_workload": "correlated_pair", "n": 48, "seed": 3,
                 "push": t[:32].tolist()},
            )
            assert status == 200
            assert state["kind"] == "lcs" and state["size"] == 32
            assert state["answer"] == lcs_length_dp(s, t[:32])

            status, _, state = post_json(
                handle.url + f"/sessions/{state['id']}/push", {"symbols": t[32:].tolist()}
            )
            assert status == 200
            assert state["answer"] == lcs_length_dp(s, t)
        finally:
            handle.stop()

    def test_session_validation(self):
        handle = start_server()
        try:
            status, _, body = post_json(handle.url + "/sessions", {"kind": "bogus"})
            assert status == 400
            status, _, body = post_json(handle.url + "/sessions", {"kind": "lcs", "workload": "random", "n": 16})
            assert status == 400  # lcs needs a string-pair target
            status, _, body = post_json(handle.url + "/sessions/s999/push", {"symbols": [1]})
            assert status == 404
        finally:
            handle.stop()

    def test_nan_symbols_are_a_400(self):
        # JSON NaN has no order; a push carrying one is refused before it
        # reaches the window, which keeps answering as before.
        handle = start_server()
        try:
            status, _, state = post_json(handle.url + "/sessions", {"kind": "lis", "push": [1, 2]})
            assert status == 200
            sid = state["id"]
            status, _, body = post_json(
                handle.url + f"/sessions/{sid}/push", {"symbols": [1, float("nan")]}
            )
            assert status == 400 and "'symbols' must not contain NaN" in body["error"]
            status, _, body = post_json(
                handle.url + "/sessions", {"kind": "lis", "push": [float("nan")]}
            )
            assert status == 400 and "'push' must not contain NaN" in body["error"]
            status, _, state = get_json(handle.url + f"/sessions/{sid}")
            assert status == 200 and state["size"] == 2 and state["answer"] == 2
        finally:
            handle.stop()


# ------------------------------------------------------ per-request parse gap
class TestBatchParseErrors:
    def test_malformed_op_yields_error_slot_not_batch_abort(self):
        handle = start_server()
        try:
            document = {
                "schema": "repro.service.requests",
                "requests": [
                    {"op": "lis_length", "id": "ok0", "workload": "random", "n": 64, "seed": 7},
                    {"op": "not_an_op", "id": "bad1", "workload": "random", "n": 64, "seed": 7},
                    {"op": "substring_query", "id": "ok2", "workload": "random", "n": 64,
                     "seed": 7, "i": 0, "j": 32},
                ],
            }
            status, _, body = post_json(handle.url + "/v2/batch", document)
            assert status == 200
            assert body["ok"] == 2 and body["errors"] == 1
            entries = body["results"]
            assert [entry["id"] for entry in entries] == ["ok0", "bad1", "ok2"]
            assert entries[0]["status"] == "ok"
            assert entries[1]["status"] == "error" and "unknown op" in entries[1]["error"]
            assert entries[2]["status"] == "ok"
            _, _, stats = get_json(handle.url + "/stats")
            assert stats["requests"]["parse_errors"] == 1
        finally:
            handle.stop()

    def test_envelope_errors_still_reject_whole_batch(self):
        handle = start_server()
        try:
            status, _, body = post_json(handle.url + "/v2/batch", {"schema": "wrong", "requests": [{}]})
            assert status == 400
            status, _, body = post_json(handle.url + "/v2/batch", {"requests": []})
            assert status == 400
        finally:
            handle.stop()


# -------------------------------------------------------- service_latency spec
class TestServiceLatencySpec:
    def test_quick_grid_passes_checks(self):
        spec = get_spec("service_latency")
        result = run_experiment(spec, quick=True)
        assert result.checks_passed is True
        for point in result.points:
            row = point.row()
            assert row["mismatches"] == 0
            assert row["ok"] > 0 and row["failed"] == 0
            assert 0 < row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
            assert row["qps"] > 0


# ------------------------------------------------------------------ CLI e2e
class TestServeHttpCLI:
    def test_serve_http_subprocess_cycle(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-http", "--port", "0", "--duration", "30"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            line = process.stdout.readline()
            assert "listening on" in line, line
            url = line.split("listening on ", 1)[1].split(" ", 1)[0]
            status, _, body = get_json(url + "/healthz", timeout=10)
            assert status == 200

            document = {
                "schema": "repro.service.requests",
                "requests": [{"op": "lis_length", "workload": "random", "n": 128, "seed": 7}],
            }
            status, _, cold = post_json(url + "/v2/batch", document, timeout=30)
            assert status == 200 and cold["results"][0]["cache_hit"] is False
            status, _, warm = post_json(url + "/v2/batch", document, timeout=30)
            assert status == 200 and warm["results"][0]["cache_hit"] is True

            process.send_signal(signal.SIGINT)
            stdout, stderr = process.communicate(timeout=30)
            assert process.returncode == 0, stderr
            assert "served" in stdout
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
