"""The three workloads: set-up, untimed warm-up, timed window, checks.

``query_warm`` and ``build_cold`` drive ``python -m repro serve-http
--port 0`` (all defaults) over HTTP; ``mpc_lis`` drives a solver process
running ``repro.lis.mpc_lis``.  Each run returns a :class:`Outcome`; the
end-to-end metrics come from untraced processes, the per-layer metrics
from a second, traced process of the same program.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import common, httpclient, inputs, tracing
from .oracle import Oracle, check, split_response

#: Set-ups per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: Fewest solves an ``mpc_lis`` window may hold: ten of them beyond its p90.
MIN_MPC_SOLVES = 100
STARTUP_TIMEOUT_S = 120.0
EXPECTED_MPC = os.path.join(common.BENCH_DIR, "expected_mpc_stats.json")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: Reasons the run is not correct beyond failed ops (self-checks).
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise common.BenchError(f"no output from pid {proc.pid} within {timeout:.0f}s")
    return proc.stdout.readline()


# ------------------------------------------------------------- HTTP workloads
@dataclass
class ServerSpec:
    name: str
    connections: int
    warmup_ops: int
    body_for: Callable[[int], bytes]
    setup_body: Callable[[int], bytes]
    #: The cache hit ratio every timed window must show.
    hit_ratio: float


def _server_spec(name: str, seed: int) -> ServerSpec:
    if name == "query_warm":
        targets = inputs.warm_targets(seed)
        pool = inputs.warm_pool(seed, targets)
        setup = inputs.warm_setup_body(targets)
        return ServerSpec(name, 2, 2 * len(pool), lambda k: pool[k % len(pool)], lambda _: setup, 1.0)
    bodies: Dict[int, bytes] = {}

    def body_for(k: int) -> bytes:
        if k not in bodies:
            bodies[k] = inputs.cold_body(seed, k)
        return bodies[k]

    # Encode well past a run's expected op count before timing starts.
    for k in range(400):
        body_for(k)
    return ServerSpec(
        name, 1, 4, body_for, lambda launch: inputs.cold_body(seed, launch, setup=True), 0.0
    )


class _Server:
    """One ``serve-http`` process, pinned to the program's CPU."""

    def __init__(self, layout, spans_path: Optional[str] = None) -> None:
        if spans_path is None:
            argv = [sys.executable, "-m", "repro", "serve-http", "--port", "0"]
        else:
            argv = [sys.executable, os.path.join(common.BENCH_DIR, "traced_server.py"),
                    spans_path, "serve-http", "--port", "0"]
        self.spans_path = spans_path
        self.started = time.perf_counter()
        self.proc = common.launch(argv, layout["program"])
        try:
            line = _read_line(self.proc, STARTUP_TIMEOUT_S)
            if not line.startswith("listening on http://"):
                raise common.BenchError(f"server did not start: {line!r}")
            self.port = int(line.split()[2].rsplit(":", 1)[1])
        except BaseException:
            common.stop(self.proc)
            raise

    def stats(self) -> Dict[str, Any]:
        return httpclient.get_json(self.port, "/stats")

    def close(self) -> Dict[str, Any]:
        """Stop the server; returns the traced per-op rows (empty untraced)."""
        common.stop(self.proc)
        if self.spans_path is None or not os.path.exists(self.spans_path):
            return {}
        with open(self.spans_path, "r", encoding="utf-8") as fh:
            return json.load(fh)


def _setup(spec: ServerSpec, layout, oracle: Oracle, outcome: Outcome, launch: int,
           spans_path: Optional[str] = None) -> Tuple[_Server, float]:
    server = _Server(layout, spans_path)
    try:
        body = spec.setup_body(launch)
        raw = httpclient.call(server.port, httpclient.request_bytes("POST", "/v2/batch", body))
        seconds = time.perf_counter() - server.started
        reason = check(raw, oracle.expected(body))
        if reason is not None:
            outcome.problems.append(f"set-up batch: {reason}")
    except BaseException:
        server.close()
        raise
    return server, seconds


def _delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    cache0, cache1 = before["service"]["cache"], after["service"]["cache"]
    return {
        "hits": cache1["hits"] - cache0["hits"],
        "misses": cache1["misses"] - cache0["misses"],
        "answered": after["requests"]["answered"] - before["requests"]["answered"],
        "passes": after["coalescing"]["passes"] - before["coalescing"]["passes"],
        "coalesced": after["coalescing"]["coalesced_requests"]
        - before["coalescing"]["coalesced_requests"],
        "rejected": after["requests"]["rejected"],
    }


def score(records: List[httpclient.Record], body_for: Callable[[int], bytes], oracle: Oracle,
          outcome: Outcome) -> Dict[int, Tuple[float, bytes]]:
    """Check every op's answer; returns ``op -> (latency, raw)`` of the correct ones.

    Every op counts as attempted; a non-200 (429 included), a connection
    error or an answer that differs from the reference counts as failed.
    """
    good: Dict[int, Tuple[float, bytes]] = {}
    for k, sent, done, raw in records:
        outcome.attempted += 1
        reason = check(raw, oracle.expected(body_for(k)))
        if reason is None:
            good[k] = (done - sent, raw)
        else:
            outcome.failed += 1
            if len(outcome.problems) < 5:
                outcome.problems.append(f"op {k}: {reason}")
    return good


def _timed_window(spec: ServerSpec, server: _Server, seconds: float, oracle: Oracle,
                  outcome: Outcome) -> Dict[str, Any]:
    """Warm-up, then the timed closed loop; checks every answer afterwards."""
    warm, _, _ = httpclient.closed_loop(
        server.port, spec.body_for, connections=spec.connections, max_ops=spec.warmup_ops
    )
    before = server.stats()
    records, start, end = httpclient.closed_loop(
        server.port, spec.body_for, connections=spec.connections,
        first_op=spec.warmup_ops, seconds=seconds,
    )
    after = server.stats()
    rss = common.peak_rss_mb(server.proc.pid)

    warm_outcome = Outcome()
    score(warm, spec.body_for, oracle, warm_outcome)
    if warm_outcome.failed:
        outcome.problems.append(f"{warm_outcome.failed} warm-up ops failed")
    good = score(records, spec.body_for, oracle, outcome)

    counts = _delta(before, after)
    lookups = counts["hits"] + counts["misses"]
    hit_ratio = counts["hits"] / lookups if lookups else float("nan")
    if hit_ratio != spec.hit_ratio:
        outcome.problems.append(
            f"cache hit ratio {hit_ratio:.3f} in the timed window; {spec.name} must read "
            f"{spec.hit_ratio:.1f} (a different program is being measured)"
        )
    if counts["rejected"]:
        outcome.problems.append(f"server rejected {counts['rejected']} requests")
    latencies = [lat for lat, _ in good.values()] or [r[2] - r[1] for r in records]
    return {
        "good": good,
        "window_s": end - start,
        "latencies": latencies,
        "rss_mb": rss,
        "counts": counts,
        "hit_ratio": hit_ratio,
    }


def run_server(name: str, seed: int, seconds: float, trace: bool, layout) -> Outcome:
    spec = _server_spec(name, seed)
    oracle = Oracle()
    outcome = Outcome()
    launches = 1 if trace else SETUP_LAUNCHES
    setups = []
    for launch in range(launches):
        server, setup_s = _setup(spec, layout, oracle, outcome, launch)
        setups.append(setup_s)
        if launch < launches - 1:
            server.close()
    try:
        plain = _timed_window(spec, server, seconds, oracle, outcome)
    finally:
        server.close()
    summary = common.op_summary(plain["latencies"], plain["window_s"], len(plain["good"]))
    outcome.diagnostics["setup_runs_s"] = setups
    outcome.diagnostics["ops_timed"] = len(plain["latencies"])
    if not trace:
        outcome.metrics = dict(
            summary, setup_s=common.median(setups), peak_rss_mb=plain["rss_mb"]
        )
        return outcome

    os.makedirs(common.OUT_DIR, exist_ok=True)
    spans_path = os.path.join(common.OUT_DIR, f"{name}-{seed}-{os.getpid()}.spans.json")
    server, _ = _setup(spec, layout, oracle, outcome, 0, spans_path)
    try:
        traced = _timed_window(spec, server, seconds, oracle, outcome)
    finally:
        per_op = server.close()
        if os.path.exists(spans_path):
            os.remove(spans_path)
    traced_summary = common.op_summary(
        traced["latencies"], traced["window_s"], len(traced["good"])
    )
    rows, latencies, queue_waits = [], [], []
    for k, (latency, raw) in traced["good"].items():
        row = per_op.get(str(k))
        if row is None or "root_seconds" not in row:
            continue
        row = dict(row)
        row["server.transport"] = latency - row["root_seconds"]
        rows.append(row)
        latencies.append(latency)
        results = json.loads(split_response(raw)[1])["results"]
        queue_waits.append(max(entry["queue_wait_seconds"] for entry in results))
    counts = traced["counts"]
    extra = {
        "server.queue_wait_ms": 1e3 * sum(queue_waits) / max(1, len(queue_waits)),
        "server.passes_per_request": counts["passes"] / max(1, counts["answered"]),
        "server.coalesced_ratio": counts["coalesced"] / max(1, counts["answered"]),
        "service.cache_hit_ratio": traced["hit_ratio"],
    }
    _layer_metrics(outcome, name, rows, latencies, extra,
                   traced_summary["throughput_per_s"] / summary["throughput_per_s"])
    return outcome


# ---------------------------------------------------------------- mpc_lis
def _expected_mpc() -> Dict[str, Any]:
    with open(EXPECTED_MPC, "r", encoding="utf-8") as fh:
        return json.load(fh)


class _Solver:
    def __init__(self, seed: int, traced: bool, layout) -> None:
        self.started = time.perf_counter()
        argv = [sys.executable, os.path.join(common.BENCH_DIR, "solver.py"),
                str(seed), "1" if traced else "0"]
        self.proc = common.launch(argv, layout["program"])
        try:
            line = _read_line(self.proc, STARTUP_TIMEOUT_S)
            if line.strip() != "ready":
                raise common.BenchError(f"solver did not start: {line!r}")
        except BaseException:
            common.stop(self.proc)
            raise
        self.setup_s = time.perf_counter() - self.started

    def run(self, seconds: float) -> Dict[str, Any]:
        try:
            self.proc.stdin.write(f"go {seconds}\n")
            self.proc.stdin.flush()
            line = _read_line(self.proc, seconds + STARTUP_TIMEOUT_S)
            if not line:
                raise common.BenchError("solver exited without a result")
            self.proc.wait(timeout=30)
            return json.loads(line)
        finally:
            common.stop(self.proc)

    def quit(self) -> None:
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.flush()
            self.proc.wait(timeout=30)
        finally:
            common.stop(self.proc)


def _check_solves(result: Dict[str, Any], seed: int, references: List[int],
                  outcome: Outcome) -> Dict[int, Tuple[int, int, int]]:
    """Answers against patience LIS; cluster statistics against the record."""
    expected = _expected_mpc()
    stats_by_input: Dict[int, Tuple[int, int, int]] = {}
    for k, index, _, length, rounds, words, peak in result["solves"]:
        outcome.attempted += 1
        reason = None
        if length != references[index]:
            reason = f"LIS {length} != reference {references[index]}"
        elif (rounds, peak) != (expected["rounds"][index], expected["peak_load"][index]):
            reason = f"rounds/peak load {rounds}/{peak} differ from the recorded values"
        elif seed == expected["seed"] and words != expected["words"][index]:
            reason = f"words {words} differ from the recorded {expected['words'][index]}"
        elif stats_by_input.setdefault(index, (rounds, words, peak)) != (rounds, words, peak):
            reason = "cluster statistics changed between solves of one input"
        if reason is not None:
            outcome.failed += 1
            if len(outcome.problems) < 5:
                outcome.problems.append(f"solve {k} (input {index}): {reason}")
    return stats_by_input


def run_mpc(seed: int, seconds: float, trace: bool, layout) -> Outcome:
    from repro.lis.patience import lis_length

    outcome = Outcome()
    references = [lis_length(seq.tolist()) for seq in inputs.mpc_inputs(seed)]
    launches = 1 if trace else SETUP_LAUNCHES
    setups = []
    for launch in range(launches):
        solver = _Solver(seed, False, layout)
        setups.append(solver.setup_s)
        if launch < launches - 1:
            solver.quit()
    plain = solver.run(seconds)
    _check_solves(plain, seed, references, outcome)
    latencies = [s[2] for s in plain["solves"]]
    summary = common.op_summary(latencies, plain["window_s"], outcome.attempted - outcome.failed)
    outcome.diagnostics["setup_runs_s"] = setups
    outcome.diagnostics["ops_timed"] = len(latencies)
    if len(latencies) < MIN_MPC_SOLVES:
        outcome.problems.append(
            f"{len(latencies)} solves in the window; latency_p90_ms needs {MIN_MPC_SOLVES}"
        )
    if not trace:
        outcome.metrics = dict(
            summary, setup_s=common.median(setups), peak_rss_mb=plain["peak_rss_mb"]
        )
        return outcome

    traced = _Solver(seed, True, layout).run(seconds)
    before = outcome.attempted - outcome.failed
    stats_by_input = _check_solves(traced, seed, references, outcome)
    traced_throughput = (outcome.attempted - outcome.failed - before) / traced["window_s"]
    rows, latencies = [], []
    for k, _, latency, *_ in traced["solves"]:
        row = traced["per_op"].get(str(k))
        if row is not None:
            rows.append(row)
            latencies.append(latency)
    inputs_seen = max(1, len(stats_by_input))
    extra = {
        "mpc.rounds": sum(s[0] for s in stats_by_input.values()) / inputs_seen,
        "mpc.words": sum(s[1] for s in stats_by_input.values()) / inputs_seen,
        "mpc.peak_load": sum(s[2] for s in stats_by_input.values()) / inputs_seen,
    }
    _layer_metrics(outcome, "mpc_lis", rows, latencies, extra,
                   traced_throughput / summary["throughput_per_s"])
    return outcome


# ------------------------------------------------------------- per-layer
#: Per-layer metrics that are averages of per-op self times, by span layer.
_TIME_METRICS = {layer: layer + "_ms" for layer in tracing.TIME_LAYERS}
_CALL_METRICS = {layer + ".calls": layer + "_calls" for layer in tracing.COUNTED_LAYERS}
_EXTRA_METRICS = (
    "server.queue_wait_ms", "server.passes_per_request", "server.coalesced_ratio",
    "service.cache_hit_ratio", "mpc.rounds", "mpc.words", "mpc.peak_load",
)


def _layer_metrics(outcome: Outcome, workload: str, rows: List[Dict[str, float]],
                   latencies: List[float], extra: Dict[str, float], overhead: float) -> None:
    """Mean per-op self time of every layer, the residual, and the budget."""
    if not rows:
        outcome.problems.append("the traced run recorded no complete op")
        rows, latencies = [{}], [0.0]
    count = len(rows)
    mean_latency_ms = 1e3 * sum(latencies) / count
    metrics: Dict[str, float] = {}
    for layer, metric in _TIME_METRICS.items():
        metrics[metric] = 1e3 * sum(row.get(layer, 0.0) for row in rows) / count
    for key, metric in _CALL_METRICS.items():
        metrics[metric] = sum(row.get(key, 0.0) for row in rows) / count
    metrics["unattributed_ms"] = mean_latency_ms - sum(metrics[m] for m in _TIME_METRICS.values())
    for key in _EXTRA_METRICS:
        metrics[key] = extra.get(key, 0.0)
    metrics["bench.traced_latency_ms"] = mean_latency_ms
    metrics["bench.trace_overhead"] = overhead
    outcome.metrics = metrics
    shares = {
        layer: metrics[metric]
        for layer, metric in _TIME_METRICS.items()
        if metrics[metric] > 0
    }
    shares["unattributed"] = metrics["unattributed_ms"]
    if "server.queue_wait_ms" in extra:
        # A wait inside server.handle, shown for its ceiling; not additive.
        shares["(server.queue_wait)"] = metrics["server.queue_wait_ms"]
    outcome.report.append(
        tracing.format_budget(workload, tracing.budget(shares, mean_latency_ms), mean_latency_ms)
    )
    outcome.diagnostics["traced_ops"] = count
