"""Tests for the resilience layer (:mod:`repro.resilience`) and its wiring.

Three tiers:

* property tests with injected clocks — the breaker state machine,
  deadline math, fault-plan firing.  No sleeps.
* router integration — hung-worker kill/restart, pipe resync after a
  deadline-abandoned call, a crash loop tripping the breaker, degraded
  serving while a breaker is open, all against the real worker processes.
* chaos end-to-end — the HTTP server under a seeded :class:`FaultPlan`
  injecting worker hangs, crashes and spill corruption: every request is
  answered (possibly ``degraded``) or fails fast with a structured 5xx,
  non-degraded answers match the serial oracle bit-for-bit, and the
  breaker/fault/hang series reach ``/metrics`` with the values ``/stats``
  reports.
"""

import contextvars
import json
import pickle
import threading
import time

import pytest

from repro.obs.metrics import snapshot_value
from repro.resilience import (
    BREAKER_STATE_CODES,
    BreakerConfig,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultRule,
    InjectedFault,
    current_deadline,
    deadline_scope,
    install_plan,
    plan_from_spec,
    uninstall_plan,
)
from repro.server import get_json, post_json, start_server
from repro.service import IndexCache, QueryService, parse_requests_document
from repro.service.sharding import ShardRetriesExhausted, ShardRouter, ShardWorkerHang


class FakeClock:
    """An injectable monotonic clock the tests advance by hand."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(autouse=True)
def _no_global_fault_plan():
    """Fault plans are process-global; never leak one across tests."""
    yield
    uninstall_plan()


# ------------------------------------------------------------------ deadline
class TestDeadline:
    def test_budget_math_with_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(250.0, clock=clock)
        assert deadline.remaining() == pytest.approx(0.25)
        assert not deadline.expired
        clock.advance(0.2)
        assert deadline.remaining() == pytest.approx(0.05)
        clock.advance(0.1)
        assert deadline.expired
        assert deadline.remaining() == 0.0  # never negative

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline.after_ms(0.0)
        with pytest.raises(ValueError):
            Deadline.after_ms(-5.0)

    def test_budget_must_be_finite(self):
        for budget in (float("nan"), float("inf"), "1e400"):
            with pytest.raises(ValueError):
                Deadline.after_ms(budget)

    def test_tighten_keeps_the_stricter_deadline(self):
        clock = FakeClock()
        loose = Deadline.after_ms(1000.0, clock=clock)
        tightened = loose.tighten_ms(100.0)
        assert tightened.remaining() == pytest.approx(0.1)
        # Tightening with a *looser* budget is a no-op.
        assert loose.tighten_ms(5000.0) is loose

    def test_scope_installs_and_restores(self):
        assert current_deadline() is None
        deadline = Deadline.after_ms(100.0, clock=FakeClock())
        with deadline_scope(deadline):
            assert current_deadline() is deadline
            with deadline_scope(None):  # None is a transparent no-op
                assert current_deadline() is deadline
        assert current_deadline() is None

    def test_scope_propagates_through_context_copies(self):
        """The executor-thread hop pattern: context copies carry the budget."""
        deadline = Deadline.after_ms(100.0, clock=FakeClock())
        seen = {}

        def probe():
            seen["deadline"] = current_deadline()

        with deadline_scope(deadline):
            ctx = contextvars.copy_context()
        thread = threading.Thread(target=ctx.run, args=(probe,))
        thread.start()
        thread.join()
        assert seen["deadline"] is deadline


# ---------------------------------------------------------- circuit breaker
class TestCircuitBreaker:
    def _breaker(self, clock, **overrides):
        defaults = dict(
            failure_threshold=3,
            error_rate_threshold=0.5,
            window=10,
            min_window_calls=5,
            cooldown_seconds=10.0,
        )
        defaults.update(overrides)
        return CircuitBreaker(BreakerConfig(**defaults), name="t", clock=clock)

    def test_consecutive_failures_trip(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        transitions = []
        breaker._on_transition = lambda name, old, new: transitions.append((old, new))
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert transitions == [("closed", "open")]
        assert not breaker.allow()
        assert breaker.stats()["rejected_calls"] == 1

    def test_success_resets_the_consecutive_count(self):
        # Disarm the windowed trip so only the consecutive counter matters.
        breaker = self._breaker(FakeClock(), min_window_calls=100)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_window_error_rate_trips_after_min_calls(self):
        breaker = self._breaker(FakeClock())
        # Alternate success/failure: never 3 consecutive, but a 50% rate.
        for _ in range(2):
            breaker.record_success()
            breaker.record_failure()
        assert breaker.state == "closed"  # only 4 window calls, min is 5
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "open"

    def test_cold_breaker_cannot_window_trip(self):
        breaker = self._breaker(FakeClock(), min_window_calls=10)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_recloses(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        breaker.trip()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.allow()  # the probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # single probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        breaker.trip()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(9.0)  # cooldown restarted at the probe failure
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()

    def test_release_probe_unwedges_a_half_open_breaker(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        breaker.trip()
        clock.advance(10.0)
        assert breaker.allow()
        # The probe's caller hit its own deadline: health-neutral outcome.
        breaker.release_probe()
        assert breaker.state == "half_open"
        assert breaker.allow()  # slot is free again, no cooldown owed

    def test_transition_counters(self):
        clock = FakeClock()
        seen = []
        breaker = CircuitBreaker(
            BreakerConfig(cooldown_seconds=10.0),
            name="t",
            clock=clock,
            on_transition=lambda *transition: seen.append(transition),
        )
        breaker.trip()
        clock.advance(10.0)
        breaker.allow()
        breaker.record_success()
        # The router counts these into repro_breaker_transitions_total.
        assert seen == [
            ("t", "closed", "open"),
            ("t", "open", "half_open"),
            ("t", "half_open", "closed"),
        ]

    def test_state_codes_cover_every_state(self):
        assert BREAKER_STATE_CODES == {"closed": 0, "half_open": 1, "open": 2}

    def test_reset_clears_failure_memory(self):
        breaker = self._breaker(FakeClock())
        breaker.trip()
        breaker.reset()
        assert breaker.state == "closed"
        assert breaker.stats()["consecutive_failures"] == 0


# ------------------------------------------------------------- fault plans
class TestFaultPlan:
    def test_hits_are_one_based_and_deterministic(self):
        plan = FaultPlan([FaultRule("index.build", "error", hits=[2, 4])])
        assert plan.fire("index.build", {}) is None
        with pytest.raises(InjectedFault):
            plan.fire("index.build", {})
        assert plan.fire("index.build", {}) is None
        with pytest.raises(InjectedFault):
            plan.fire("index.build", {})
        assert plan.fire("index.build", {}) is None

    def test_probability_schedule_replays_per_seed(self):
        def schedule(seed):
            plan = FaultPlan(
                [FaultRule("pipe.send", "corrupt", probability=0.5)], seed=seed
            )
            return [plan.fire("pipe.send", {}) is not None for _ in range(64)]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)  # seed actually matters

    def test_match_filters_on_context(self):
        plan = FaultPlan(
            [FaultRule("worker.dispatch", "error", hits=[1], match={"shard": 1})]
        )
        assert plan.fire("worker.dispatch", {"shard": 0}) is None
        with pytest.raises(InjectedFault):
            plan.fire("worker.dispatch", {"shard": 1})

    def test_max_fires_bounds_a_probability_rule(self):
        plan = FaultPlan(
            [FaultRule("pipe.recv", "corrupt", probability=1.0, max_fires=2)]
        )
        fired = sum(plan.fire("pipe.recv", {}) is not None for _ in range(10))
        assert fired == 2

    def test_delay_uses_the_injected_sleep(self):
        plan = FaultPlan([FaultRule("index.build", "delay", hits=[1], delay_ms=250)])
        sleeps = []
        plan._sleep = sleeps.append
        assert plan.fire("index.build", {}) == "delay"
        assert sleeps == [0.25]

    def test_pickle_round_trip_preserves_the_schedule(self):
        plan = FaultPlan(
            [FaultRule("worker.dispatch", "error", hits=[3])], seed=5
        )
        plan.fire("worker.dispatch", {})
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.fire("worker.dispatch", {}) is None  # hit 2
        with pytest.raises(InjectedFault):
            clone.fire("worker.dispatch", {})  # hit 3

    def test_plan_from_spec_inline_and_file(self, tmp_path):
        document = {"seed": 3, "rules": [{"site": "index.build", "kind": "error", "hits": [1]}]}
        inline = plan_from_spec(json.dumps(document))
        assert inline.seed == 3 and inline.rules[0].kind == "error"
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(document))
        from_file = plan_from_spec(str(path))
        assert from_file.rules[0].site == "index.build"

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultRule("nope.site", "error", hits=[1])
        with pytest.raises(ValueError):
            FaultRule("index.build", "nope", hits=[1])
        with pytest.raises(ValueError):
            FaultRule("index.build", "error")  # needs hits or probability
        with pytest.raises(ValueError):
            FaultRule("index.build", "error", probability=1.5)

    def test_stats_counts_hits_and_fires(self):
        plan = FaultPlan([FaultRule("index.build", "corrupt", hits=[2])])
        plan.fire("index.build", {})
        plan.fire("index.build", {})
        stats = plan.stats()
        assert stats["fired_total"] == 1
        assert stats["rules"][0]["hit_count"] == 2
        assert stats["rules"][0]["fired"] == 1


# ----------------------------------------------------- router integration
def _requests_for(document):
    _, requests = parse_requests_document(document)
    return requests


_BATCH = {
    "requests": [
        {"op": "lis_length", "id": "a", "workload": "random", "n": 256, "seed": 1},
        {"op": "lis_length", "id": "b", "workload": "random", "n": 256, "seed": 2},
        {"op": "lcs_length", "id": "c", "string_workload": "correlated_pair", "n": 64, "seed": 3},
        {"op": "lis_length", "id": "d", "workload": "random", "n": 256, "seed": 4},
    ]
}


class TestRouterResilience:
    def test_hung_worker_is_killed_and_restarted(self):
        # Hit counters are per-process: dispatch 2 of the *first* worker
        # hangs; the restarted incarnation's dispatch 1 is clean, so the
        # retry lands.
        plan = FaultPlan(
            [FaultRule("worker.dispatch", "hang", hits=[2], delay_ms=30000)]
        )
        with ShardRouter(1, worker_timeout=0.4, fault_plan=plan) as router:
            if router.serial_fallback:
                pytest.skip("no process workers in this environment")
            router.submit(_requests_for(_BATCH))  # dispatch 1: clean
            result = router.submit(_requests_for(_BATCH))
            assert [o.result for o in result.outcomes] == [
                o.result for o in QueryService().submit(_requests_for(_BATCH)).outcomes
            ]
            stats = router.stats()
            assert stats["resilience"]["hangs"] >= 1
            assert stats["restarts"] >= 1
            # The hang is on shard 0's series of the router's registry.
            snapshot = router.metrics.snapshot()
            assert snapshot_value(snapshot, "repro_shard_hangs_total", shard=0) >= 1

    def test_deadline_abandons_call_but_worker_survives(self):
        # Dispatch hit 2 stalls 600 ms; the caller's 150 ms budget dies at
        # the pipe wait, the worker is NOT killed, and the *next* call
        # drains the stale answer and gets the right result.
        plan = FaultPlan(
            [FaultRule("worker.dispatch", "delay", hits=[2], delay_ms=600)]
        )
        with ShardRouter(1, worker_timeout=30.0, fault_plan=plan) as router:
            if router.serial_fallback:
                pytest.skip("no process workers in this environment")
            requests = _requests_for(_BATCH)
            router.submit(requests)  # hit 1: clean, warms the cache
            with deadline_scope(Deadline.after_ms(150.0)):
                with pytest.raises(DeadlineExceeded):
                    router.submit(requests)
            result = router.submit(requests)  # resyncs past the stale answer
            oracle = QueryService().submit(requests)
            assert [o.result for o in result.outcomes] == [
                o.result for o in oracle.outcomes
            ]
            assert router.stats()["restarts"] == 0  # abandoned, not killed

    def test_expired_deadline_refuses_dispatch(self):
        clock = FakeClock()
        dead = Deadline.after_ms(10.0, clock=clock)
        clock.advance(1.0)
        with ShardRouter(2, force_serial=True) as router:
            with deadline_scope(dead):
                with pytest.raises(DeadlineExceeded) as excinfo:
                    router.submit(_requests_for(_BATCH))
            assert excinfo.value.stage == "router"

    def test_open_breaker_serves_degraded_and_matches_oracle(self):
        with ShardRouter(2, force_serial=True) as router:
            requests = _requests_for(_BATCH)
            baseline = router.submit(requests)
            for breaker in router._breakers:
                breaker.trip()
            degraded = router.submit(requests)
            assert all(o.degraded for o in degraded.outcomes)
            assert not any(o.degraded for o in baseline.outcomes)
            # Stale-tolerant but still *correct* here: the fallback runs the
            # same deterministic computation.
            assert [o.result for o in degraded.outcomes] == [
                o.result for o in baseline.outcomes
            ]
            stats = router.stats()
            assert stats["resilience"]["degraded_requests"] == len(requests)
            assert all(
                doc["state"] == "open"
                for doc in stats["resilience"]["breakers"].values()
            )
            samples = router.metrics.snapshot()["repro_breaker_state"]["samples"]
            assert len(samples) == 2
            assert all(value == BREAKER_STATE_CODES["open"] for _, value in samples)

    def test_breaker_recloses_after_cooldown_probe(self):
        clock = FakeClock()
        with ShardRouter(1, force_serial=True) as router:
            breaker = CircuitBreaker(
                BreakerConfig(cooldown_seconds=5.0),
                name="0",
                clock=clock,
                on_transition=router._note_breaker_transition,
            )
            router._breakers[0] = breaker
            requests = _requests_for(_BATCH)
            breaker.trip()
            degraded = router.submit(requests)
            assert all(o.degraded for o in degraded.outcomes)
            clock.advance(5.0)
            probed = router.submit(requests)  # the half-open probe succeeds
            assert not any(o.degraded for o in probed.outcomes)
            assert breaker.state == "closed"

    def test_degraded_fallback_serves_one_sub_batch_at_a_time(self, monkeypatch):
        """Open breakers on every shard funnel into one single-threaded service.

        The router's pool runs the four sub-batches on four threads; the
        degraded fallback must still call its ``QueryService`` one at a
        time, because the service and its cache take no locks.
        """
        clock = FakeClock()
        active, peak = [0], [0]
        lock = threading.Lock()
        real_submit = QueryService.submit

        def spying_submit(self, requests):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            try:
                time.sleep(0.05)  # widen the window an overlap would need
                return real_submit(self, requests)
            finally:
                with lock:
                    active[0] -= 1

        document = {
            "requests": [
                {"op": "lis_length", "id": f"r{seed}", "workload": "random",
                 "n": 96, "seed": seed}
                for seed in range(12)
            ]
        }
        requests = _requests_for(document)
        with ShardRouter(4, force_serial=True) as router:
            assert {router._shard_for_request(r) for r in requests} == {0, 1, 2, 3}
            for shard in range(4):
                router._breakers[shard] = CircuitBreaker(
                    BreakerConfig(cooldown_seconds=5.0),
                    name=str(shard),
                    clock=clock,
                    on_transition=router._note_breaker_transition,
                )
                router._breakers[shard].trip()
            monkeypatch.setattr(QueryService, "submit", spying_submit)
            result = router.submit(requests)
            monkeypatch.undo()
            assert peak[0] == 1, f"{peak[0]} concurrent calls on the fallback service"
            assert all(outcome.degraded for outcome in result.outcomes)
            assert router.stats()["resilience"]["degraded_requests"] == len(requests)
        oracle = QueryService().submit(requests)
        assert [o.result for o in result.outcomes] == [o.result for o in oracle.outcomes]

    def test_crash_is_restarted_and_retried(self):
        # A worker that crashes on its 2nd dispatch: one immediate retry,
        # then the restarted incarnation answers.
        plan = FaultPlan([FaultRule("worker.dispatch", "crash", hits=[2])])
        with ShardRouter(1, fault_plan=plan) as router:
            if router.serial_fallback:
                pytest.skip("no process workers in this environment")
            requests = _requests_for(_BATCH)
            router.submit(requests)  # dispatch 1: clean
            result = router.submit(requests)  # dispatch 2: crash → retry
            oracle = QueryService().submit(requests)
            assert [o.result for o in result.outcomes] == [
                o.result for o in oracle.outcomes
            ]
            stats = router.stats()
            assert stats["retries"] >= 1

    def test_crash_loop_trips_the_breaker_into_degraded_serving(self):
        # Every submit dispatch crashes its worker.  The first submit gets a
        # restart and retry_limit=2 immediate retries, then fails fast; the
        # second submit's 5th consecutive failure trips the breaker, so its
        # sub-batch is served degraded instead of failing.
        plan = FaultPlan(
            [FaultRule("worker.dispatch", "crash", probability=1.0, match={"cmd": "submit"})]
        )
        with ShardRouter(1, fault_plan=plan) as router:
            if router.serial_fallback:
                pytest.skip("no process workers in this environment")
            requests = _requests_for(_BATCH)
            with pytest.raises(ShardRetriesExhausted, match="crashed 3 times"):
                router.submit(requests)
            result = router.submit(requests)
            assert all(o.degraded for o in result.outcomes)
            assert [o.result for o in result.outcomes] == [
                o.result for o in QueryService().submit(requests).outcomes
            ]
            stats = router.stats()
            assert stats["restarts"] == 6
            assert stats["retries"] == 4
            assert stats["resilience"]["breakers"]["0"]["state"] == "open"

    def test_registry_reset_gives_restarted_workers_a_clean_slate(self):
        """Fork copies the parent registry; reset() must zero it in place.

        Module-level metric references must survive (a replaced registry
        would orphan them).
        """
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        counter = registry.counter("t_total", labelnames=("shard",))
        hist = registry.histogram("t_seconds")
        counter.inc(5, shard="0")
        hist.observe(0.1)
        assert registry.snapshot()["t_total"]["samples"]
        registry.reset()
        snap = registry.snapshot()
        assert snap["t_total"]["samples"] == []
        assert snap["t_seconds"]["samples"] == []
        counter.inc(shard="1")  # the pre-reset reference still works
        assert registry.snapshot()["t_total"]["samples"] == [[[["shard", "1"]], 1]]

    def test_stats_resilience_shape(self):
        with ShardRouter(2, force_serial=True) as router:
            doc = router.stats()["resilience"]
            assert doc["worker_timeout_seconds"] > 0
            assert doc["hangs"] == 0 and doc["degraded_requests"] == 0
            assert set(doc["breakers"]) == {"0", "1"}


# ------------------------------------------------------------ HTTP deadlines
class TestHttpDeadlines:
    def test_expired_batch_is_a_structured_504(self):
        plan = FaultPlan([FaultRule("index.build", "delay", probability=1.0, delay_ms=700)])
        install_plan(plan)
        try:
            handle = start_server(QueryService(), default_deadline_ms=150.0)
            try:
                status, _, body = post_json(handle.url + "/v2/batch", _BATCH)
                assert status == 504
                assert body["ok"] == 0
                assert body["deadline_expired"] == len(_BATCH["requests"])
                for entry in body["results"]:
                    assert entry["status"] == "error"
                    assert entry["deadline_exceeded"] is True
                    assert "deadline" in entry["error"]
                status, _, stats = get_json(handle.url + "/stats")
                assert stats["requests"]["deadline_expired"] == len(_BATCH["requests"])
                # The stage-labelled counter is on /metrics.
                import urllib.request

                with urllib.request.urlopen(handle.url + "/metrics") as resp:
                    text = resp.read().decode()
                assert "repro_deadline_expired_total" in text
            finally:
                handle.stop()
        finally:
            uninstall_plan()

    def test_header_budget_overrides_the_default(self):
        handle = start_server(QueryService(), default_deadline_ms=1.0)
        try:
            status, _, body = post_json(
                handle.url + "/v2/batch",
                _BATCH,
                headers={"X-Repro-Deadline-Ms": "30000"},
            )
            assert status == 200
            assert body["ok"] == len(_BATCH["requests"])
            assert body["deadline_expired"] == 0
        finally:
            handle.stop()

    def test_document_deadline_can_only_tighten(self):
        handle = start_server(QueryService())
        try:
            document = dict(_BATCH)
            document["deadline_ms"] = 30000
            status, _, body = post_json(handle.url + "/v2/batch", document)
            assert status == 200 and body["ok"] == len(_BATCH["requests"])

            status, _, body = post_json(
                handle.url + "/v2/batch", {**_BATCH, "deadline_ms": -5}
            )
            assert status == 400

            # json.dumps writes these as the raw JSON tokens NaN and
            # Infinity, which json.loads on the server accepts.
            for budget in (float("nan"), float("inf")):
                status, _, body = post_json(
                    handle.url + "/v2/batch", {**_BATCH, "deadline_ms": budget}
                )
                assert status == 400 and "deadline_ms" in body["error"], budget
        finally:
            handle.stop()

    @pytest.mark.parametrize("header", ["soon", "nan", "inf", "1e400"])
    def test_bad_header_is_a_400(self, header):
        handle = start_server(QueryService())
        try:
            status, _, body = post_json(
                handle.url + "/v2/batch",
                _BATCH,
                headers={"X-Repro-Deadline-Ms": header},
            )
            assert status == 400 and "X-Repro-Deadline-Ms" in body["error"]
        finally:
            handle.stop()


# --------------------------------------------------------------- chaos e2e
class TestChaosEndToEnd:
    def test_hang_crash_and_spill_corruption_never_drop_a_request(self, tmp_path):
        """The acceptance scenario: seeded chaos, zero unanswered requests.

        A two-shard router with a byte-starved spilling cache runs under a
        plan injecting a worker hang, a worker crash and spill-file
        corruption.  Every request over HTTP must come back ``ok``
        (possibly ``degraded``) or as a structured error before its
        deadline — and every non-degraded answer must match the serial
        oracle bit-for-bit.
        """
        plan = FaultPlan(
            [
                FaultRule("worker.dispatch", "hang", hits=[3], delay_ms=30000),
                FaultRule("worker.dispatch", "crash", hits=[6]),
                # Fires in every worker incarnation, so a live worker always
                # carries a fire count when /metrics is scraped (a killed
                # worker's counts die with it).
                FaultRule("worker.dispatch", "delay", hits=[1], delay_ms=10),
                FaultRule("cache.spill_load", "corrupt", probability=0.5),
            ],
            seed=42,
        )
        router = ShardRouter(
            2,
            cache_bytes=1,  # every index spills: the corrupt site gets traffic
            spill_dir=str(tmp_path / "spill"),
            worker_timeout=0.5,
            fault_plan=plan,
        )
        if router.serial_fallback:
            router.close()
            pytest.skip("no process workers in this environment")
        handle = start_server(router)
        oracle = QueryService()
        try:
            documents = []
            for round_index in range(6):
                documents.append(
                    {
                        "requests": [
                            {
                                "op": "lis_length",
                                "id": f"r{round_index}-{i}",
                                "workload": "random",
                                "n": 192 + 32 * i,
                                "seed": i,
                            }
                            for i in range(4)
                        ]
                    }
                )
            answered = 0
            for document in documents:
                status, _, body = post_json(
                    handle.url + "/v2/batch",
                    document,
                    headers={"X-Repro-Deadline-Ms": "30000"},
                    timeout=60.0,
                )
                assert status in (200, 504), body
                assert len(body["results"]) == len(document["requests"])
                expected = [
                    o.result for o in oracle.submit(_requests_for(document)).outcomes
                ]
                for entry, want in zip(body["results"], expected):
                    assert entry is not None, "silently dropped request"
                    answered += 1
                    if entry["status"] == "ok" and not entry.get("degraded"):
                        assert entry["result"] == want, entry["id"]
                    elif entry["status"] == "error":
                        assert entry["error"], entry  # structured, not empty
            assert answered == sum(len(d["requests"]) for d in documents)

            status, _, stats = get_json(handle.url + "/stats")
            resilience = stats["service"]["resilience"]
            # The parent's plan copy never fires (faults fire in the worker
            # processes) but the installed plan is visible on /stats.
            assert resilience.get("fault_plan") is not None
            assert stats["service"]["restarts"] >= 1  # the hang/crash hit home
            assert resilience["hangs"] >= 1

            import urllib.request

            with urllib.request.urlopen(handle.url + "/metrics") as resp:
                text = resp.read().decode()
            assert "repro_breaker_state" in text
            # Worker-side fire counts reach the merged exposition through
            # the per-shard registry snapshots.  Only shard-labelled samples
            # count: the unlabelled series is this test process's own.
            fired = sum(
                float(line.rsplit(None, 1)[1])
                for line in text.splitlines()
                if line.startswith("repro_faults_injected_total{")
                and 'shard="' in line
            )
            assert fired >= 1.0
            # The per-shard hang series reaches /metrics with the total
            # /stats reports.
            hangs = sum(
                float(line.rsplit(None, 1)[1])
                for line in text.splitlines()
                if line.startswith("repro_shard_hangs_total{")
            )
            assert hangs == resilience["hangs"]
        finally:
            handle.stop()
