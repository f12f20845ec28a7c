"""Tests for the sharded serving tier (:mod:`repro.service.sharding`).

The invariants every scaling change must preserve:

* bit-identity — a mixed batch routed across 1/2/4 shards must match the
  serial :class:`QueryService` oracle exactly, outcome for outcome, with
  the answers demuxed back into the original batch positions;
* ring stability — adding a shard moves only ~1/N of the fingerprints,
  and every moved fingerprint lands on the *new* shard (resident caches
  stay warm);
* fault tolerance — a killed worker process is detected, restarted, its
  sub-batch retried, and the ``restarts`` counter reflects it;
* isolation — each worker spills into a private subdirectory that is
  removed at shutdown.
"""

import json
import os
import signal
import time
import urllib.request

import numpy as np
import pytest

from repro.experiments import get_spec, run_experiment
from repro.experiments.cli import main as cli_main
from repro.server import get_json, post_json, start_server
from repro.service import (
    ConsistentHashRing,
    IndexCache,
    QueryRequest,
    QueryService,
    ServiceRequestError,
    ShardRouter,
    TargetSpec,
)


def _seq_target(n=96, seed=20, workload="random"):
    return TargetSpec(kind="sequence", workload=workload, n=n, seed=seed)


def _pair_target(n=64, seed=3):
    return TargetSpec(kind="string_pair", workload="correlated_pair", n=n, seed=seed)


def _mixed_requests(seed=0, targets=6, n=96):
    """A mixed LIS/LCS batch over ``targets`` distinct fingerprints."""
    rng = np.random.default_rng(seed)
    requests = []
    for index in range(targets):
        target = _seq_target(n=n, seed=seed + index)
        i = rng.integers(0, n - 1, size=3)
        j = np.minimum(i + rng.integers(1, n // 2, size=3), n)
        requests.append(
            QueryRequest(op="lis_length", target=target, request_id=f"len{index}")
        )
        requests.append(
            QueryRequest(
                op="substring_query", target=target, request_id=f"sub{index}", i=i, j=j
            )
        )
        requests.append(
            QueryRequest(
                op="rank_interval_query", target=target, request_id=f"rank{index}", x=0, y=n
            )
        )
    for index in range(2):
        target = _pair_target(seed=seed + 50 + index)
        requests.append(
            QueryRequest(op="lcs_length", target=target, request_id=f"lcs{index}")
        )
    # Shuffle so shard sub-batches interleave in the original positions.
    order = rng.permutation(len(requests))
    return [requests[k] for k in order]


def _assert_same_outcomes(observed, expected):
    assert len(observed) == len(expected)
    for ours, oracle in zip(observed, expected):
        assert ours.request_id == oracle.request_id
        assert ours.op == oracle.op
        assert ours.index_fingerprint == oracle.index_fingerprint
        assert np.array_equal(np.asarray(ours.result), np.asarray(oracle.result)), (
            f"request {ours.request_id}: {ours.result} != {oracle.result}"
        )


# ---------------------------------------------------------------------- ring
class TestConsistentHashRing:
    def test_deterministic_and_in_range(self):
        ring_a, ring_b = ConsistentHashRing(4), ConsistentHashRing(4)
        keys = [f"key-{k}" for k in range(500)]
        owners = [ring_a.owner(key) for key in keys]
        assert owners == [ring_b.owner(key) for key in keys]
        assert set(owners) == {0, 1, 2, 3}

    def test_adding_a_shard_moves_only_its_fraction(self):
        before, after = ConsistentHashRing(4), ConsistentHashRing(5)
        keys = [f"fingerprint-{k:05d}" for k in range(2000)]
        moved = [key for key in keys if before.owner(key) != after.owner(key)]
        fraction = len(moved) / len(keys)
        # Ideal is 1/5; virtual nodes keep the real fraction near it.
        assert 0.05 <= fraction <= 0.35, f"moved fraction {fraction:.3f} out of band"
        # Consistency proper: every moved key lands on the NEW shard only.
        assert all(after.owner(key) == 4 for key in moved)

    def test_rejects_degenerate_configs(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(0)
        with pytest.raises(ValueError):
            ConsistentHashRing(2, replicas=0)


# ------------------------------------------------------------- bit-identity
class TestRouterBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_mixed_batches_match_serial_oracle(self, shards):
        requests = _mixed_requests(seed=shards)
        oracle = QueryService(cache=IndexCache())
        expected = oracle.submit(requests).outcomes
        router = ShardRouter(shards, force_serial=True)
        try:
            for _ in range(2):  # cold then warm
                _assert_same_outcomes(router.submit(requests).outcomes, expected)
        finally:
            router.close()

    def test_process_workers_match_serial_oracle(self):
        requests = _mixed_requests(seed=9, targets=4)
        oracle = QueryService(cache=IndexCache())
        expected = oracle.submit(requests).outcomes
        router = ShardRouter(2)
        try:
            batch = router.submit(requests)
            _assert_same_outcomes(batch.outcomes, expected)
            stats = router.stats()
            assert stats["workers"] == "process"
            assert stats["serial_fallback"] is None
            assert sum(stats["load"]["per_shard_requests"]) == len(requests)
            assert stats["load"]["shards_exercised"] >= 1
            assert stats["requests_served"] == len(requests)
            per_shard = stats["per_shard"]
            assert len(per_shard) == 2
            assert all(doc["pid"] != os.getpid() for doc in per_shard)
        finally:
            router.close()

    def test_refresh_routes_and_matches_oracle(self):
        target = _seq_target(n=64, seed=31)
        tail = [3.0, 1.0, 4.0]
        refresh = QueryRequest(
            op="refresh", target=target, request_id="ref", append=tuple(tail)
        )
        oracle = QueryService(cache=IndexCache())
        expected = oracle.submit([refresh]).outcomes
        router = ShardRouter(2, force_serial=True)
        try:
            observed = router.submit([refresh]).outcomes
            _assert_same_outcomes(observed, expected)
        finally:
            router.close()

    def test_unknown_op_rejected_before_any_dispatch(self):
        router = ShardRouter(2, force_serial=True)
        try:
            bad = QueryRequest(op="nope", target=_seq_target(), request_id="x")
            with pytest.raises(ServiceRequestError, match="unknown op"):
                router.submit([bad])
            assert router.stats()["requests_served"] == 0
        finally:
            router.close()


# ----------------------------------------------------------- fault injection
class TestWorkerCrashRecovery:
    def test_killed_worker_restarts_and_answers(self):
        requests = _mixed_requests(seed=5, targets=4)
        oracle = QueryService(cache=IndexCache())
        expected = oracle.submit(requests).outcomes
        router = ShardRouter(2)
        try:
            assert router.stats()["workers"] == "process"
            _assert_same_outcomes(router.submit(requests).outcomes, expected)
            # Kill both workers outright: every shard must detect the dead
            # pipe, restart, and re-answer (rebuilding its caches).
            for worker in router._workers:
                worker.process.kill()
                worker.process.join(timeout=10)
            _assert_same_outcomes(router.submit(requests).outcomes, expected)
            stats = router.stats()
            assert stats["restarts"] >= 1
            assert all(doc.get("error") is None for doc in stats["per_shard"])
        finally:
            router.close()

    def test_concurrent_restarts_leak_no_pipe_ends(self, monkeypatch):
        """A worker forked while another spawn still holds its child's pipe
        ends (here the exit sentinel) keeps them open, and closing the router
        then waits out a 5 s join on the other worker."""
        import threading

        router = ShardRouter(2)
        if router.serial_fallback:
            router.close()
            pytest.skip("no process workers in this environment")
        fork = os.fork
        forked = threading.Event()

        def slow_fork():
            pid = fork()
            if pid and not forked.is_set():
                forked.set()
                time.sleep(0.15)  # the new worker's pipe ends are open here
            return pid

        restart = threading.Thread(target=router._workers[0].restart)
        try:
            for worker in router._workers:  # crashed, as restarts find them
                worker.process.kill()
                worker.process.join(timeout=10)
            monkeypatch.setattr(os, "fork", slow_fork)
            restart.start()
            assert forked.wait(5)
            router._workers[1].restart()
            restart.join(10)
            started = time.monotonic()
        finally:
            router.close()
        assert time.monotonic() - started < 2.0

    def test_closed_router_does_not_respawn_workers(self):
        router = ShardRouter(2)
        assert router.stats()["workers"] == "process"
        processes = [worker.process for worker in router._workers]
        router.close()
        # serve-http reads stats after stopping the server: the scrape must
        # report the closed shards, not restart them.
        stats = router.stats()
        assert stats["restarts"] == 0
        assert all(doc["error"] == "ShardRouter is closed" for doc in stats["per_shard"])
        assert all(worker.process is None for worker in router._workers)
        assert not any(process.is_alive() for process in processes)

    def test_hung_worker_is_killed_and_reaped_before_its_replacement(self):
        request = QueryRequest(op="lis_length", target=_seq_target(), request_id="a")
        expected = QueryService(cache=IndexCache()).submit([request]).outcomes
        router = ShardRouter(1, worker_timeout=1.0)
        old = router._workers[0].process
        try:
            assert router.stats()["workers"] == "process"
            # A stopped process acts on no signal but SIGKILL.
            os.kill(old.pid, signal.SIGSTOP)
            started = time.monotonic()
            answered = router.submit([request]).outcomes
            elapsed = time.monotonic() - started
            _assert_same_outcomes(answered, expected)
            # One 1 s liveness timeout, then a prompt restart: no joins
            # waiting out a process that cannot exit.
            assert elapsed < 5.0, f"submit across the restart took {elapsed:.2f}s"
            assert old.exitcode == -signal.SIGKILL, "the hung worker was not reaped"
            assert router._workers[0].process.pid != old.pid
        finally:
            router.close()
            if old.is_alive():
                old.kill()
                old.join(timeout=10)

    def test_crash_loop_gives_up_after_retry_limit(self):
        router = ShardRouter(1, retry_limit=1)
        try:
            assert router.stats()["workers"] == "process"
            original_spawn = router._workers[0]._spawn

            def spawn_dead():
                original_spawn()
                router._workers[0].process.kill()
                router._workers[0].process.join(timeout=10)

            router._workers[0].process.kill()
            router._workers[0].process.join(timeout=10)
            router._workers[0]._spawn = spawn_dead
            with pytest.raises(RuntimeError, match="crashed .* times"):
                router.submit(
                    [QueryRequest(op="lis_length", target=_seq_target(), request_id="a")]
                )
            router._workers[0]._spawn = original_spawn
        finally:
            router.close()


# ------------------------------------------------------- spill + prefetch
class TestIsolationAndWarmup:
    def test_workers_spill_into_private_subdirs_cleaned_on_close(self, tmp_path):
        spill_root = str(tmp_path / "spill")
        # A tiny budget forces every built index through the spill path.
        router = ShardRouter(2, cache_bytes=4096, spill_dir=spill_root)
        try:
            assert router.stats()["workers"] == "process"
            router.submit(_mixed_requests(seed=2, targets=4))
            subdirs = os.listdir(spill_root)
            assert len(subdirs) == 2
            assert all(name.startswith("shard") and "-pid" in name for name in subdirs)
            assert any(
                files for files in (os.listdir(os.path.join(spill_root, d)) for d in subdirs)
            ), "tiny cache budget should have spilled at least one index"
        finally:
            router.close()
        assert os.listdir(spill_root) == []

    def test_restarted_worker_leaves_no_spill_subdir(self, tmp_path):
        spill_root = str(tmp_path / "spill")
        # A 1-byte budget spills every built index straight to disk.
        router = ShardRouter(1, cache_bytes=1, spill_dir=spill_root)

        def submit(seed):
            router.submit(
                [QueryRequest(op="lis_length", target=_seq_target(seed=seed), request_id="a")]
            )

        try:
            assert router.stats()["workers"] == "process"
            for seed in range(3):
                submit(seed)
            old_dir = router._workers[0].spill_dir
            assert len(os.listdir(old_dir)) == 3
            router._workers[0].process.kill()
            router._workers[0].process.join(timeout=10)
            for seed in range(3, 5):
                submit(seed)
            assert router.stats()["restarts"] == 1
            assert not os.path.exists(old_dir), "the dead worker's spill files stayed"
        finally:
            router.close()
        assert os.listdir(spill_root) == []

    def test_prefetch_makes_submissions_pure_cache_hits(self):
        requests = _mixed_requests(seed=12, targets=4)
        specs = {
            (
                request.target,
                request.index_kind(),
                True if request.index_kind() == "lcs" else bool(request.strict),
            )
            for request in requests
            if request.op != "refresh"
        }
        router = ShardRouter(2, force_serial=True)
        try:
            report = router.prefetch(sorted(specs, key=lambda item: item[1]))
            assert report["prefetched"] == len(specs)
            assert report["already_cached"] == 0
            batch = router.submit([r for r in requests if r.op != "refresh"])
            assert batch.indexes_built == 0
            assert all(outcome.cache_hit for outcome in batch.outcomes)
        finally:
            router.close()

    def test_ensure_index_routes_and_validates(self):
        router = ShardRouter(2, force_serial=True)
        try:
            target = _seq_target(n=48, seed=8)
            info, was_cached = router.ensure_index(target)
            assert not was_cached and info.kind == "lis:position" and info.was_built
            info2, was_cached2 = router.ensure_index(target)
            assert was_cached2 and info2.fingerprint == info.fingerprint
            with pytest.raises(ServiceRequestError, match="does not fit"):
                router.ensure_index(target, "lcs")
            with pytest.raises(ServiceRequestError, match="unknown index kind"):
                router.ensure_index(target, "bogus")
        finally:
            router.close()

    def test_forced_serial_fallback_is_recorded(self):
        router = ShardRouter(3, force_serial=True)
        try:
            stats = router.stats()
            assert stats["workers"] == "inline"
            assert stats["serial_fallback"] == "forced"
            assert router.concurrency == 1
        finally:
            router.close()


# ------------------------------------------------------------ HTTP front-end
class TestRouterBehindServer:
    def test_sharded_server_answers_and_reports_shard_stats(self):
        router = ShardRouter(2)
        handle = start_server(router, port=0)
        try:
            document = {
                "requests": [
                    {"op": "lis_length", "id": f"r{s}", "workload": "random",
                     "n": 128, "seed": s}
                    for s in range(5)
                ]
                + [
                    {"op": "lcs_length", "id": "c", "string_workload": "correlated_pair",
                     "n": 64, "seed": 3}
                ]
            }
            status, _, cold = post_json(handle.url + "/v2/batch", document)
            assert status == 200 and cold["errors"] == 0
            status, _, warm = post_json(handle.url + "/v2/batch", document)
            assert status == 200 and warm["errors"] == 0
            assert [r["result"] for r in warm["results"]] == [
                r["result"] for r in cold["results"]
            ]
            assert all(r["cache_hit"] for r in warm["results"])

            status, _, stats = get_json(handle.url + "/stats")
            assert status == 200
            assert stats["service_concurrency"] == 2
            service = stats["service"]
            assert service["sharded"] and service["shards"] == 2
            assert sum(service["load"]["per_shard_requests"]) == 12
            timings = service["router_timings"]
            assert set(timings) == {"queue_wait", "shard_exec"}
            assert timings["shard_exec"]["count"] == 12
            assert timings["shard_exec"]["total_seconds"] > 0.0
        finally:
            handle.stop()
        # Server shutdown must have closed the router's workers.
        assert router.closed
        assert all(worker.process is None for worker in router._workers)

    def test_scrapes_never_wait_on_a_busy_worker(self):
        """Holding a worker's lock (a long command) must not stall a scrape."""
        from repro.obs.metrics import parse_prometheus_text

        document = {
            "requests": [
                {"op": "lis_length", "id": f"r{s}", "workload": "random", "n": 64, "seed": s}
                for s in range(2)
            ]
        }
        router = ShardRouter(1)
        handle = start_server(router)

        def scrape():
            status, _, stats = get_json(handle.url + "/stats", timeout=2)
            assert status == 200
            with urllib.request.urlopen(handle.url + "/metrics", timeout=2) as response:
                metrics = parse_prometheus_text(response.read().decode("utf-8"))
            return stats["service"]["per_shard"][0], metrics

        try:
            with router._workers[0].lock:
                doc, _ = scrape()
            assert doc["snapshot_age_seconds"] is None and "queries_evaluated" not in doc

            status, _, body = post_json(handle.url + "/v2/batch", document)
            assert status == 200 and body["errors"] == 0
            polled, _ = scrape()
            assert polled["snapshot_age_seconds"] == 0.0
            with router._workers[0].lock:
                time.sleep(0.01)
                doc, metrics = scrape()
            assert doc["snapshot_age_seconds"] > 0.0
            assert doc["queries_evaluated"] == polled["queries_evaluated"] == 2
            assert metrics["repro_service_queries_total"][(("shard", "0"),)] == 2

            # A degraded pass holds the fallback's lock throughout.
            router._breakers[0].trip()
            status, _, body = post_json(handle.url + "/v2/batch", document)
            assert status == 200 and all(entry["degraded"] for entry in body["results"])
            with router._fallback_lock:
                _, metrics = scrape()
            assert metrics["repro_service_queries_total"][(("shard", "fallback"),)] == 2
        finally:
            handle.stop()


    def test_one_stats_polls_each_shard_once(self):
        """Both halves of one ``/stats`` document come from one poll: it sends
        each shard one ``metrics`` command, as one ``/metrics`` does."""

        def metrics_commands():
            entry = router.metrics.snapshot()["repro_shard_pipe_seconds"]
            return sum(
                value["count"] for labels, value in entry["samples"]
                if dict(labels).get("cmd") == "metrics"
            )

        router = ShardRouter(2)
        handle = start_server(router)
        try:
            status, _, _ = post_json(handle.url + "/v2/batch", {
                "requests": [{"op": "lis_length", "workload": "random", "n": 64, "seed": 1}]
            })
            assert status == 200
            before = metrics_commands()
            status, _, stats = get_json(handle.url + "/stats")
            assert status == 200
            assert metrics_commands() - before == 2
            assert [doc["snapshot_age_seconds"] for doc in stats["service"]["per_shard"]] == [0.0, 0.0]
            before = metrics_commands()
            with urllib.request.urlopen(handle.url + "/metrics", timeout=30) as response:
                assert response.status == 200
            assert metrics_commands() - before == 2
        finally:
            handle.stop()

    def test_a_stopped_worker_never_freezes_a_scrape(self):
        """A SIGSTOPped worker costs a scrape the short fixed budget, never the
        worker timeout, and never counts as a request's deadline expiry; the
        shard is served from its last snapshot, and polled afresh once the
        worker runs again."""
        import threading

        from repro.obs.metrics import get_registry

        expired = get_registry().counter("repro_deadline_expired_total", labelnames=("stage",))
        router = ShardRouter(1, worker_timeout=3)
        handle = start_server(router)
        worker = router._workers[0]
        try:
            status, _, stats = get_json(handle.url + "/stats")
            assert status == 200
            assert stats["service"]["per_shard"][0]["snapshot_age_seconds"] == 0.0
            expired_before = expired.value(stage="worker")
            os.kill(worker.pid, signal.SIGSTOP)
            for _ in range(2):
                replies = {}

                def scrape():
                    started = time.monotonic()
                    replies["stats"] = get_json(handle.url + "/stats", timeout=10)
                    replies["stats_seconds"] = time.monotonic() - started

                scraper = threading.Thread(target=scrape)
                scraper.start()
                time.sleep(0.1)
                started = time.monotonic()
                status, _, _ = get_json(handle.url + "/healthz", timeout=10)
                healthz_seconds = time.monotonic() - started
                scraper.join(timeout=10)
                assert not scraper.is_alive()
                assert status == 200 and healthz_seconds < 1.0, healthz_seconds
                status, _, stats = replies["stats"]
                assert status == 200 and replies["stats_seconds"] < 1.5
                assert stats["service"]["per_shard"][0]["snapshot_age_seconds"] > 0.0
            assert stats["requests"]["deadline_expired"] == 0
            assert expired.value(stage="worker") == expired_before
            assert stats["service"]["restarts"] == 0 and worker.process.is_alive()

            os.kill(worker.pid, signal.SIGCONT)
            assert worker.conn.poll(10), "the abandoned scrape's answer never arrived"
            status, _, stats = get_json(handle.url + "/stats")
            assert status == 200
            assert stats["service"]["per_shard"][0]["snapshot_age_seconds"] == 0.0
        finally:
            os.kill(worker.pid, signal.SIGCONT)
            handle.stop()
            router.close()

    @pytest.mark.parametrize("recovered_by", ["scrape", "request"])
    def test_a_worker_stopped_in_a_scrape_is_restarted_once_overdue(self, recovered_by):
        """A scrape abandons a stopped worker, but the abandoned call keeps
        its ``worker_timeout``: once that runs out, the next scrape or request
        kills and restarts the worker at once, without waiting for it."""
        router = ShardRouter(1, worker_timeout=0.6)
        handle = start_server(router)
        worker = router._workers[0]
        stopped = worker.pid
        try:
            assert get_json(handle.url + "/stats")[0] == 200
            os.kill(stopped, signal.SIGSTOP)
            status, _, stats = get_json(handle.url + "/stats", timeout=10)
            assert status == 200 and stats["service"]["restarts"] == 0
            assert stats["service"]["per_shard"][0]["snapshot_age_seconds"] > 0.0
            waited_until = time.monotonic() + 5
            while not worker.answer_overdue() and time.monotonic() < waited_until:
                time.sleep(0.02)
            assert worker.answer_overdue()

            started = time.monotonic()
            if recovered_by == "scrape":
                status, _, stats = get_json(handle.url + "/stats", timeout=10)
            else:
                status, _, body = post_json(handle.url + "/v2/batch", {
                    "requests": [{"op": "lis_length", "workload": "random", "n": 64, "seed": 1}]
                }, timeout=10)
                assert body["ok"] == 1
            # Neither path waits on the stopped worker; a fresh
            # worker_timeout would have held the request for 0.6 s.
            assert status == 200 and time.monotonic() - started < 0.45
            if recovered_by == "request":
                status, _, stats = get_json(handle.url + "/stats", timeout=10)
            assert stats["service"]["restarts"] == 1
            assert stats["service"]["resilience"]["hangs"] == 1
            assert stats["service"]["per_shard"][0]["snapshot_age_seconds"] == 0.0
            assert worker.pid != stopped and worker.process.is_alive()
        finally:
            if worker.pid == stopped:
                os.kill(stopped, signal.SIGCONT)
            handle.stop()
            router.close()

    def test_scrapes_never_wait_on_an_abandoned_answer(self):
        """A deadline-abandoned cold build leaves its worker owing an answer;
        a scrape serves the shard's last snapshot instead of draining it."""
        cold = {
            "requests": [
                {"op": "lis_length", "id": "cold", "workload": "random", "n": 12000, "seed": 5}
            ]
        }
        router = ShardRouter(1)
        handle = start_server(router)
        try:
            status, _, stats = get_json(handle.url + "/stats")
            assert status == 200
            assert stats["service"]["per_shard"][0]["snapshot_age_seconds"] == 0.0

            status, _, body = post_json(
                handle.url + "/v2/batch", cold, headers={"X-Repro-Deadline-Ms": "50"}
            )
            assert status == 504 and body["deadline_expired"] == 1
            # The edge answers 504 on its own clock; wait until the router
            # has abandoned the worker call too, so the scrape meets a
            # worker that owes an answer rather than one still locked.
            waited_until = time.monotonic() + 5
            while router._workers[0]._stale == 0 and time.monotonic() < waited_until:
                time.sleep(0.01)
            status, _, stats = get_json(handle.url + "/stats")
            assert status == 200
            doc = stats["service"]["per_shard"][0]
            assert doc["snapshot_age_seconds"] > 0.0
            # Served while the build still runs: the answer is still owed.
            assert router._workers[0]._stale == 1
        finally:
            handle.stop()


# ------------------------------------------------------------ spec + CLI
class TestShardScalingSpecAndCli:
    def test_quick_spec_passes_checks(self):
        result = run_experiment(get_spec("shard_scaling"), quick=True)
        rows = [point.row() for point in result.points]
        assert [row["shards"] for row in rows] == [1, 2]
        checksums = {row["answers_checksum"] for row in rows}
        assert len(checksums) == 1
        assert all(row["mismatches"] == 0 for row in rows)

    def test_cli_serve_with_shards_writes_valid_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "serve.json"
        requests_file = tmp_path / "requests.json"
        requests_file.write_text(
            json.dumps(
                {
                    "schema": "repro.service.requests",
                    "version": 2,
                    "requests": [
                        {"op": "lis_length", "id": "a", "workload": "random",
                         "n": 64, "seed": 1},
                        {"op": "lcs_length", "id": "b",
                         "string_workload": "correlated_pair", "n": 48, "seed": 3},
                    ],
                }
            )
        )
        code = cli_main(
            [
                "serve",
                "--requests", str(requests_file),
                "--repeat", "2",
                "--shards", "2",
                "--artifact", str(artifact),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "across 2 shards" in out
        document = json.loads(artifact.read_text())
        assert document["fixed"]["shards"] == 2
        assert document["service"]["sharded"] is True
        assert cli_main(["validate", str(artifact)]) == 0
