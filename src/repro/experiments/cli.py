"""The ``python -m repro`` command line interface.

Subcommands
-----------
``list``
    Show every registered experiment (name, points, claim).
``run <spec>``
    Execute an experiment's grid, print its text table and optionally write
    the versioned JSON artifact (``--json [PATH]``, default
    ``results/<spec>.json``).
``serve``
    Answer a batch of semi-local queries from a JSON request file through
    the :mod:`repro.service` subsystem (index cache + batched execution);
    ``--repeat`` re-submits the batch to demonstrate cache amortisation and
    ``--artifact`` records the outcome as a schema-v1 document.
``serve-http``
    Expose the query service over HTTP (:mod:`repro.server`): POST
    ``/v2/batch`` with the same request schema, request coalescing,
    admission control with 429 + ``Retry-After`` backpressure, background
    ``/builds`` and streaming ``/sessions`` routes, live ``/stats``.
``stream``
    Drive a sliding-window streaming session (:mod:`repro.streaming`):
    per-tick exact LIS/LCS answers with incremental seaweed recomposition,
    recorded as a schema-v1 artifact with an additive ``streaming`` section.
``perf``
    Run the core hot-path micro-benchmarks (:mod:`repro.perf`), write the
    ``results/perf_core.json`` artifact and gate against the recorded
    baseline (cpu-normalised, tolerance-based; exit 1 on regression or when
    the iterative-vs-reference multiply speedup falls below the floor).
``report``
    Render every recorded artifact in ``results/`` (or an explicit list) as
    ASCII scaling curves, latency tables and cache hit-rate summaries
    (:mod:`repro.obs.report`); ``--trend`` adds the perf-over-commits trend
    table from ``results/perf_trend.jsonl``, ``--capacity QPS`` answers
    "how many shards/workers do I need for QPS requests/second", and
    ``--slo`` adds the burn-rate summary of recorded SLO evaluations.
``validate <path>``
    Check an artifact file against the schema (exit 1 on failure).

Every named-workload input is derived from an explicit ``--seed`` (default
0), so a recorded artifact is bit-for-bit reproducible from the CLI line
alone.

Examples
--------
.. code-block:: console

    $ python -m repro list
    $ python -m repro run table1 --json results/table1.json
    $ python -m repro run table1 --quick --workers 4 --set delta=0.5
    $ python -m repro run lis_rounds --quick --backend process
    $ python -m repro serve --requests examples/service_requests.json --repeat 2
    $ python -m repro serve-http --port 8077 --max-inflight 64
    $ python -m repro stream --ticks 16 --window 4096 --workload random --seed 7
    $ python -m repro stream --session lcs --window 256 --ticks 8
    $ python -m repro perf --quick
    $ python -m repro perf --quick --record-trend
    $ python -m repro report
    $ python -m repro report results/shard_scaling.json --capacity 500
    $ python -m repro validate results/table1.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from ..analysis.report import format_block, format_table
from ..mpc.engine import backend_names
from ..service import (
    DEFAULT_CACHE_BYTES,
    IndexCache,
    QueryService,
    ShardRouter,
    parse_requests_document,
)
from .artifacts import (
    SCHEMA_ID,
    SCHEMA_VERSION,
    ArtifactError,
    load_artifact,
    result_to_artifact,
    write_artifact,
    write_document,
)
from .runner import ExperimentResult, run_experiment
from .spec import ExperimentSpec, PointResult, all_specs, expand_grid, get_spec

__all__ = ["main", "build_parser"]

DEFAULT_ARTIFACT_TEMPLATE = "results/{spec}.json"


def _add_service_arguments(parser) -> None:
    """The serving flags ``serve`` and ``serve-http`` share.

    Each defaults to ``None`` so :func:`_build_cli_service` can fall back to
    the request file's ``defaults`` (``serve``) and then to the built-in
    defaults.
    """
    parser.add_argument(
        "--mode",
        choices=("sequential", "mpc"),
        default=None,
        help="index build path (default: sequential, or the 'mode' a serve "
        "request file's defaults set)",
    )
    parser.add_argument(
        "--backend",
        choices=backend_names(),
        default=None,
        help="execution backend for MPC index builds (wall-clock only)",
    )
    parser.add_argument(
        "--delta",
        type=float,
        default=None,
        help="MPC scalability parameter (default: 0.5, or the 'delta' a serve "
        "request file's defaults set)",
    )
    parser.add_argument(
        "--cache-bytes", type=int, default=None, metavar="N", help="index cache budget in bytes"
    )
    parser.add_argument(
        "--spill", default=None, metavar="DIR", help="spill evicted indexes to .npz files in DIR"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="default seed for named-workload targets that omit 'seed' "
        "(keeps recorded artifacts reproducible from the CLI line alone)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="consistent-hash index fingerprints across N sharded worker "
        "processes, each with a private index cache (0 = single-process "
        "service; answers are shard-invariant and /stats gains a per-shard "
        "section)",
    )


def _build_cli_service(args, defaults: Dict[str, Any]):
    """A single-process service, or — with ``--shards N`` — a shard router.

    Each serving flag left unset falls back to ``defaults`` (a request
    file's ``defaults`` block; empty for ``serve-http``), then to sequential
    mode, delta 0.5, no backend, ``DEFAULT_CACHE_BYTES`` and no spill.
    """
    mode = args.mode if args.mode is not None else str(defaults.get("mode", "sequential"))
    delta = args.delta if args.delta is not None else float(defaults.get("delta", 0.5))
    backend = args.backend if args.backend is not None else defaults.get("backend")
    cache_bytes = (
        args.cache_bytes
        if args.cache_bytes is not None
        else int(defaults.get("cache_bytes", DEFAULT_CACHE_BYTES))
    )
    spill_dir = args.spill if args.spill is not None else defaults.get("spill_dir")
    fault_plan = None
    fault_spec = getattr(args, "fault_plan", None) or os.environ.get("REPRO_FAULT_PLAN")
    if fault_spec:
        from ..resilience import install_plan, plan_from_spec

        fault_plan = plan_from_spec(fault_spec)
    worker_timeout_ms = getattr(args, "worker_timeout_ms", None)
    shards = int(args.shards or 0)
    if shards > 0:
        extra: Dict[str, Any] = {}
        if worker_timeout_ms is not None:
            extra["worker_timeout"] = float(worker_timeout_ms) / 1000.0
        if fault_plan is not None:
            extra["fault_plan"] = fault_plan
        return ShardRouter(
            shards,
            mode=mode,
            delta=delta,
            backend=backend,
            cache_bytes=cache_bytes,
            spill_dir=spill_dir,
            **extra,
        )
    if fault_plan is not None:
        # Single-process serving still honours the in-process fault sites
        # (index.build, cache.spill_load); the router-owned sites need
        # --shards to exist at all.
        install_plan(fault_plan)
    return QueryService(
        cache=IndexCache(max_bytes=cache_bytes, spill_dir=spill_dir),
        mode=mode,
        delta=delta,
        backend=backend,
    )


def _parse_scalar(text: str) -> Any:
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return text


def _parse_overrides(settings: Sequence[str]) -> Dict[str, List[Any]]:
    """``["delta=0.25,0.5", "n=1024"]`` → ``{"delta": [0.25, 0.5], "n": [1024]}``."""
    overrides: Dict[str, List[Any]] = {}
    for setting in settings:
        if "=" not in setting:
            raise ValueError(f"--set expects key=value[,value...], got {setting!r}")
        key, _, values = setting.partition("=")
        key = key.strip()
        if not key or not values:
            raise ValueError(f"--set expects key=value[,value...], got {setting!r}")
        overrides[key] = [_parse_scalar(item.strip()) for item in values.split(",")]
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the registered reproduction experiments and manage their JSON artifacts.",
    )
    sub = parser.add_subparsers(dest="command")

    list_parser = sub.add_parser("list", help="list the registered experiments")
    list_parser.add_argument("--json", action="store_true", help="print the listing as JSON")

    run_parser = sub.add_parser("run", help="run one experiment's parameter grid")
    run_parser.add_argument("spec", help="experiment name (see `list`)")
    run_parser.add_argument(
        "--json",
        nargs="?",
        const=DEFAULT_ARTIFACT_TEMPLATE,
        default=None,
        metavar="PATH",
        help=f"write the JSON artifact (default path: {DEFAULT_ARTIFACT_TEMPLATE.format(spec='<spec>')})",
    )
    run_parser.add_argument("--quick", action="store_true", help="use the spec's reduced smoke-test grid")
    run_parser.add_argument("--workers", type=int, default=1, metavar="N", help="process fan-out across grid points")
    run_parser.add_argument(
        "--backend",
        choices=backend_names(),
        default=None,
        help="execution backend of the simulated clusters (wall-clock only; "
        "rounds/space/communication accounting is backend-invariant)",
    )
    run_parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=V[,V...]",
        dest="overrides",
        help="override a swept grid parameter (repeatable)",
    )
    run_parser.add_argument("--no-checks", action="store_true", help="skip the cross-point consistency checks")

    serve_parser = sub.add_parser(
        "serve",
        help="answer a batch of semi-local queries from a JSON request file",
    )
    serve_parser.add_argument(
        "--requests", required=True, metavar="PATH", help="JSON batch document (schema repro.service.requests)"
    )
    serve_parser.add_argument(
        "--artifact",
        default=None,
        metavar="PATH",
        help="write the serving outcome as a schema-v1 experiment artifact",
    )
    serve_parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="K",
        help="submit the batch K times (re-submissions hit the index cache)",
    )
    _add_service_arguments(serve_parser)

    serve_http_parser = sub.add_parser(
        "serve-http",
        help="expose the query service over HTTP (coalescing + backpressure)",
    )
    serve_http_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_http_parser.add_argument(
        "--port", type=int, default=8077, metavar="P", help="bind port (0 = ephemeral)"
    )
    serve_http_parser.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="admission-control cap on concurrently served requests (excess "
        "batches get 429 + Retry-After)",
    )
    serve_http_parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="S",
        help="serve for S seconds then exit (default: until Ctrl-C)",
    )
    serve_http_parser.add_argument(
        "--trace-head-rate",
        type=float,
        default=1.0,
        metavar="R",
        help="deterministic head-sampling rate in [0,1]: the fraction of "
        "trace IDs retained unconditionally (tail-latency outliers are "
        "kept regardless; default 1.0 = keep everything)",
    )
    serve_http_parser.add_argument(
        "--trace-tail-min-ms",
        type=float,
        default=None,
        metavar="MS",
        help="absolute floor for tail retention: any trace slower than MS "
        "is kept even before the quantile estimate has warmed up",
    )
    serve_http_parser.add_argument(
        "--slo-record",
        default=None,
        metavar="PATH",
        help="on shutdown, evaluate the SLO engine against the final "
        "metrics snapshot and write the result as a schema-v1 artifact",
    )
    serve_http_parser.add_argument(
        "--slo-history",
        default=None,
        metavar="PATH",
        help="persist the SLO window history to a JSONL file and reload it "
        "at startup, so burn rates survive server restarts",
    )
    serve_http_parser.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="deadline budget applied to every POST /v2/batch without an "
        "X-Repro-Deadline-Ms header; expired batches answer a structured "
        "504 (default: no budget)",
    )
    serve_http_parser.add_argument(
        "--worker-timeout-ms",
        type=float,
        default=None,
        metavar="MS",
        help="hung-worker liveness timeout for sharded serving: a worker "
        "silent on its pipe this long is killed and restarted like a "
        "crash (default 120000)",
    )
    serve_http_parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection: a JSON object (inline, "
        "starting with '{') or a path to one — "
        '{"seed": N, "rules": [{"site", "kind", ...}]}; sites: '
        "worker.dispatch, pipe.send, pipe.recv, cache.spill_load, "
        "index.build; kinds: crash, hang, delay, error, corrupt",
    )
    _add_service_arguments(serve_http_parser)

    stream_parser = sub.add_parser(
        "stream",
        help="drive a sliding-window streaming session (incremental recomposition)",
    )
    stream_parser.add_argument(
        "--session", choices=("lis", "lcs"), default="lis", help="session kind (default lis)"
    )
    stream_parser.add_argument(
        "--workload", default="random", metavar="NAME", help="sequence workload (lis sessions)"
    )
    stream_parser.add_argument(
        "--string-workload",
        default="correlated_pair",
        metavar="NAME",
        help="string-pair workload (lcs sessions)",
    )
    stream_parser.add_argument("--window", "-n", type=int, default=4096, metavar="N", help="sliding window length")
    stream_parser.add_argument("--ticks", type=int, default=16, metavar="K", help="number of slide ticks")
    stream_parser.add_argument("--slide", type=int, default=64, metavar="B", help="symbols appended/evicted per tick")
    stream_parser.add_argument("--leaf-size", type=int, default=64, metavar="L", help="aggregator leaf block size")
    stream_parser.add_argument("--probes", type=int, default=4, metavar="P", help="rank-interval probes per tick (lis)")
    stream_parser.add_argument(
        "--seed", type=int, default=0, metavar="S", help="workload + probe seed (artifacts reproduce bit-for-bit)"
    )
    stream_parser.add_argument(
        "--non-strict", action="store_true", help="longest non-decreasing instead of strictly increasing (lis)"
    )
    stream_parser.add_argument(
        "--backend",
        choices=backend_names(),
        default=None,
        help="execution backend for leaf-block builds (wall-clock only)",
    )
    stream_parser.add_argument(
        "--artifact",
        default=None,
        metavar="PATH",
        help="write the per-tick outcome as a schema-v1 artifact (+ 'streaming' section)",
    )

    perf_parser = sub.add_parser(
        "perf",
        help="run the core hot-path micro-benchmarks and gate against the baseline",
    )
    perf_parser.add_argument(
        "--quick", action="store_true", help="run only the reduced smoke-test case grid"
    )
    perf_parser.add_argument(
        "--json",
        nargs="?",
        const="results/perf_core.json",
        default=None,
        metavar="PATH",
        help="write the perf artifact (default path: results/perf_core.json)",
    )
    perf_parser.add_argument(
        "--baseline",
        default="results/perf_core.json",
        metavar="PATH",
        help="recorded baseline artifact to gate against (skipped when absent)",
    )
    perf_parser.add_argument(
        "--no-check",
        action="store_true",
        help="skip the baseline regression check and the speedup floor",
    )
    perf_parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="F",
        help="regression tolerance on cpu-normalised timings (default 2.5)",
    )
    perf_parser.add_argument(
        "--speedup-floor",
        type=float,
        default=None,
        metavar="F",
        help="required iterative-vs-reference multiply speedup (default 3.0, quick 2.0)",
    )
    perf_parser.add_argument(
        "--repeats", type=int, default=2, metavar="R", help="timing repeats per case (min is kept)"
    )
    perf_parser.add_argument(
        "--record-trend",
        nargs="?",
        const="results/perf_trend.jsonl",
        default=None,
        metavar="PATH",
        help="append a {commit, timestamp, normalized timings} row to the "
        "perf trend log (default path: results/perf_trend.jsonl)",
    )

    report_parser = sub.add_parser(
        "report",
        help="render recorded artifacts as ASCII curves/tables (+ trend & capacity)",
    )
    report_parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="artifact JSON files (default: every results/*.json)",
    )
    report_parser.add_argument(
        "--trend",
        nargs="?",
        const="results/perf_trend.jsonl",
        default=None,
        metavar="PATH",
        help="include the perf-over-commits trend table "
        "(default path: results/perf_trend.jsonl)",
    )
    report_parser.add_argument(
        "--capacity",
        type=float,
        default=None,
        metavar="QPS",
        help="answer 'how many shards/workers for QPS requests/second' from "
        "the recorded scaling + latency artifacts",
    )
    report_parser.add_argument(
        "--slo",
        action="store_true",
        help="include the SLO burn-rate summary from recorded slo_eval "
        "artifacts (objectives x windows, alert severities)",
    )

    validate_parser = sub.add_parser("validate", help="validate an artifact file against the schema")
    validate_parser.add_argument("path", help="artifact JSON file")

    return parser


def _cmd_list(as_json: bool, out) -> int:
    specs = all_specs()
    if as_json:
        payload = [
            {
                "name": spec.name,
                "title": spec.title,
                "claim": spec.claim,
                "points": len(expand_grid(spec.grid)),
                "swept": sorted(spec.grid),
                "bench_file": spec.bench_file,
            }
            for spec in specs
        ]
        print(json.dumps(payload, indent=2), file=out)
        return 0
    rows = [
        [spec.name, len(expand_grid(spec.grid)), ", ".join(sorted(spec.grid)), spec.claim]
        for spec in specs
    ]
    print(format_table(["experiment", "points", "swept parameters", "paper claim"], rows), file=out)
    print(f"\n{len(specs)} experiments registered; run one with `python -m repro run <name>`.", file=out)
    return 0


def _cmd_run(args, out) -> int:
    spec = get_spec(args.spec)
    overrides = _parse_overrides(args.overrides)
    fixed_overrides: Optional[Dict[str, Any]] = None
    if args.backend is not None:
        if "backend" in overrides:
            raise ValueError(
                "--backend conflicts with --set backend=...; pass only one of the two"
            )
        if "backend" in spec.grid:
            # Specs that *sweep* the backend (backend_wallclock) are
            # restricted to the requested one instead.
            overrides["backend"] = [args.backend]
        else:
            fixed_overrides = {"backend": args.backend}
    result = run_experiment(
        spec,
        quick=args.quick,
        workers=args.workers,
        overrides=overrides or None,
        fixed_overrides=fixed_overrides,
        run_checks=not args.no_checks,
        raise_on_check_failure=False,
    )
    suffix = " [quick]" if args.quick else ""
    print(format_block(f"{spec.title}{suffix}", result.to_table()), file=out)
    fixed = ", ".join(f"{key}={value}" for key, value in sorted(result.fixed.items()))
    print(
        f"{len(result.points)} grid points in {result.wall_clock_seconds:.2f}s "
        f"(workers={result.workers}; fixed: {fixed})",
        file=out,
    )
    if result.checks_passed is True:
        print("consistency checks: passed", file=out)
    elif result.checks_passed is False:
        print(f"consistency checks FAILED: {result.check_error}", file=sys.stderr)
    if args.json is not None:
        path = args.json.format(spec=spec.name) if "{spec}" in args.json else args.json
        write_artifact(result, path)
        print(f"wrote artifact: {path}", file=out)
    return 0 if result.checks_passed is not False else 1


def _format_result_cell(outcome) -> str:
    if isinstance(outcome.result, int):
        return str(outcome.result)
    summary = outcome.result_summary()
    if summary["count"] == 0:
        return "[0 answers]"
    return f"[{summary['count']} answers, min={summary['min']}, max={summary['max']}]"


def _serve_artifact(args, service, batches, seconds: float) -> Dict[str, Any]:
    """The serving outcome as a schema-v1 document (+ a ``service`` section).

    Reuses the experiment-artifact machinery: outcomes become grid points of
    an ad-hoc (unregistered) ``serve`` spec, and the aggregate service/cache
    statistics ride along in the additive ``service`` field (additive fields
    are allowed within a schema version).
    """
    spec = ExperimentSpec(
        name="serve",
        title="Batched semi-local query serving (python -m repro serve)",
        claim="serving amortisation of Theorem 1.3 / Corollaries 1.3.1-1.3.3",
        grid={},
        point=dict,
        columns=["submission", "id", "op", "cache_hit", "num_queries"],
    )
    points = [
        PointResult(
            params={"submission": submission, "id": outcome.request_id, "op": outcome.op},
            metrics={
                "target": outcome.target,
                "index_kind": outcome.index_kind,
                "index_fingerprint": outcome.index_fingerprint,
                "cache_hit": outcome.cache_hit,
                "num_queries": outcome.num_queries,
                "result": outcome.result_summary(),
            },
            seconds=outcome.seconds,
        )
        for submission, batch in enumerate(batches)
        for outcome in batch.outcomes
    ]
    stats = service.stats()
    result = ExperimentResult(
        spec=spec,
        points=points,
        grid={},
        fixed={
            "requests_file": os.path.basename(args.requests),
            "repeat": len(batches),
            "mode": stats["mode"],
            "delta": stats["delta"],
            "backend": stats["backend"],
            "cache_max_bytes": stats["cache"]["max_bytes"],
            "shards": int(stats.get("shards", 0)) if stats.get("sharded") else 0,
        },
        quick=False,
        workers=1,
        wall_clock_seconds=seconds,
    )
    document = result_to_artifact(result)
    document["service"] = stats
    return document


def _cmd_serve(args, out) -> int:
    try:
        with open(args.requests, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read requests file {args.requests}: {exc}") from None
    defaults, requests = parse_requests_document(raw, default_seed=args.seed)
    service = _build_cli_service(args, defaults)

    try:
        repeat = max(1, int(args.repeat))
        started = time.perf_counter()
        batches = [service.submit(requests) for _ in range(repeat)]
        seconds = time.perf_counter() - started

        for submission, batch in enumerate(batches):
            rows = [
                [
                    outcome.request_id,
                    outcome.op,
                    outcome.target,
                    outcome.index_kind,
                    "hit" if outcome.cache_hit else "build",
                    outcome.num_queries,
                    _format_result_cell(outcome),
                ]
                for outcome in batch.outcomes
            ]
            print(
                format_block(
                    f"submission {submission + 1}/{repeat} ({batch.seconds * 1000:.1f} ms, "
                    f"{batch.indexes_built} built / {batch.indexes_reused} cached)",
                    format_table(
                        ["id", "op", "target", "index", "cache", "queries", "result"], rows
                    ),
                ),
                file=out,
            )
        stats = service.stats()
        cache = stats["cache"]
        sharded = (
            f" across {stats['shards']} shards" if stats.get("sharded") else ""
        )
        print(
            f"served {stats['requests_served']} requests{sharded} "
            f"({stats['queries_evaluated']} interval queries) in {seconds:.3f}s — "
            f"built {stats['indexes_built']} indexes in {stats['build_seconds']:.3f}s, "
            f"query time {stats['query_seconds'] * 1000:.1f} ms; "
            f"cache: {cache['hits']} hits / {cache['misses']} misses / "
            f"{cache['evictions']} evictions (hit rate {cache['hit_rate']:.2f})",
            file=out,
        )
        if args.artifact is not None:
            document = _serve_artifact(args, service, batches, seconds)
            write_document(document, args.artifact)
            print(f"wrote artifact: {args.artifact}", file=out)
    finally:
        close = getattr(service, "close", None)
        if callable(close):
            close()
    return 0


def _cmd_serve_http(args, out) -> int:
    from ..obs.sampling import TraceSampler
    from ..obs.slo import SLOEngine
    from ..server import start_server

    service = _build_cli_service(args, {})
    sampler = TraceSampler(
        args.trace_head_rate,
        tail_min_seconds=(
            args.trace_tail_min_ms / 1000.0
            if args.trace_tail_min_ms is not None
            else None
        ),
    )
    handle = start_server(
        service,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        default_seed=args.seed,
        sampler=sampler,
        slo_engine=SLOEngine(history_path=args.slo_history),
        default_deadline_ms=args.default_deadline_ms,
    )
    shard_note = (
        f", shards={service.shards}" if isinstance(service, ShardRouter) else ""
    )
    print(
        f"listening on {handle.url} "
        f"(max_inflight={handle.core.max_inflight}{shard_note})",
        file=out,
        flush=True,
    )
    served_started = time.perf_counter()
    try:
        if args.duration is not None:
            time.sleep(max(0.0, float(args.duration)))
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        if args.slo_record:
            # Evaluate against the final pre-shutdown snapshot: a sharded
            # service's worker-process counters are only reachable while
            # the pipes are still up.
            evaluation = handle.core.slo.evaluate(handle.core.metrics_snapshot())
            tracing = handle.core.tracer.stats()
        handle.stop()
        stats = handle.core.stats()
        requests = stats["requests"]
        print(
            f"served {requests['answered']}/{requests['received']} requests "
            f"({requests['rejected']} rejected, {requests['failed']} failed); "
            f"{stats['coalescing']['merged_passes']} merged passes, "
            f"{stats['coalescing']['coalesced_requests']} coalesced requests",
            file=out,
            flush=True,
        )
        if args.slo_record:
            document = _slo_eval_artifact(
                evaluation, tracing, time.perf_counter() - served_started
            )
            write_document(document, args.slo_record)
            print(f"wrote SLO artifact: {args.slo_record}", file=out, flush=True)
    return 0


def _slo_eval_artifact(
    evaluation: Dict[str, Any], tracing: Dict[str, Any], wall_seconds: float
) -> Dict[str, Any]:
    """Shape one SLO evaluation as a schema-v1 artifact document.

    Grid points are (objective, window) pairs carrying the burn-rate math;
    the full evaluation document and the tracer/sampler counters ride in
    ``fixed`` so ``repro report --slo`` can render alerts without guessing.
    """
    from .. import __version__

    points = []
    for objective in evaluation["objectives"]:
        for window_name, window in objective["windows"].items():
            points.append(
                {
                    "params": {
                        "objective": objective["name"],
                        "window": window_name,
                    },
                    "metrics": {
                        "burn_rate": window["burn_rate"],
                        "error_ratio": window["error_ratio"],
                        "good": window["good"],
                        "total": window["total"],
                        "coverage_seconds": window["coverage_seconds"],
                        "severity": objective["alerts"]["severity"],
                    },
                    "seconds": float(window["coverage_seconds"]),
                }
            )
    return {
        "schema": SCHEMA_ID,
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "experiment": "slo_eval",
        "title": "SLO burn-rate evaluation (python -m repro serve-http --slo-record)",
        "claim": "multi-window burn rates derive from the same merged snapshot /metrics renders",
        "quick": False,
        "workers": 1,
        "created_unix": time.time(),
        "grid": {
            "objective": [obj["name"] for obj in evaluation["objectives"]],
            "window": (
                list(evaluation["objectives"][0]["windows"])
                if evaluation["objectives"]
                else []
            ),
        },
        "fixed": {
            "thresholds": evaluation["thresholds"],
            "objectives": [
                {
                    "name": obj["name"],
                    "kind": obj["kind"],
                    "target": obj["target"],
                    "route": obj["route"],
                    "threshold_seconds": obj["threshold_seconds"],
                    "alerts": obj["alerts"],
                }
                for obj in evaluation["objectives"]
            ],
            "tracing": tracing,
            "slo_schema": evaluation["schema"],
            "slo_schema_version": evaluation["version"],
            "now_unix": evaluation["now_unix"],
        },
        "wall_clock_seconds": float(wall_seconds),
        "points": points,
    }


def _stream_artifact(args, session, points, seconds: float) -> Dict[str, Any]:
    """The streaming outcome as a schema-v1 document (+ ``streaming`` section).

    Per-tick rows become grid points of an ad-hoc ``stream`` spec; the
    session configuration and the aggregator's cost counters (multiplies
    performed, blocks rebuilt, node-store bytes) ride along in the additive
    ``streaming`` field.
    """
    spec = ExperimentSpec(
        name="stream",
        title="Streaming sliding-window session (python -m repro stream)",
        claim="incremental seaweed recomposition (monoid structure of Theorem 1.3)",
        grid={},
        point=dict,
        columns=["tick", "answer", "window", "seconds", "multiplies", "blocks_rebuilt"],
    )
    result = ExperimentResult(
        spec=spec,
        points=points,
        grid={},
        fixed={
            "session": args.session,
            "workload": args.workload if args.session == "lis" else args.string_workload,
            "window": int(args.window),
            "ticks": int(args.ticks),
            "slide": int(args.slide),
            "leaf_size": int(args.leaf_size),
            "seed": int(args.seed),
            "strict": not args.non_strict,
            "backend": args.backend or "serial",
        },
        quick=False,
        workers=1,
        wall_clock_seconds=seconds,
    )
    document = result_to_artifact(result)
    document["streaming"] = session.counters()
    return document


def _cmd_stream(args, out) -> int:
    import numpy as np

    from ..streaming import StreamingLCS, StreamingLIS
    from ..workloads import make_sequence, make_string_pair

    if args.window < 1 or args.ticks < 0 or args.slide < 1:
        raise ValueError("stream needs --window >= 1, --ticks >= 0 and --slide >= 1")
    total = args.window + args.ticks * args.slide
    if args.session == "lis":
        stream = make_sequence(args.workload, total, seed=args.seed).astype(float)
        session = StreamingLIS(
            window=args.window,
            strict=not args.non_strict,
            leaf_size=args.leaf_size,
            backend=args.backend,
        )
        warm = stream[: args.window]
        describe = f"{args.workload}(n={total}, seed={args.seed})"
    else:
        reference, stream = make_string_pair(args.string_workload, total, seed=args.seed)
        session = StreamingLCS(
            reference[: args.window],
            window=args.window,
            leaf_size=args.leaf_size,
            backend=args.backend,
        )
        warm = stream[: args.window]
        describe = f"{args.string_workload}(n={total}, seed={args.seed})"

    rng = np.random.default_rng(args.seed)
    started = time.perf_counter()
    session.push(warm)
    warm_seconds = time.perf_counter() - started
    warm_answer = session.lis_length() if args.session == "lis" else session.lcs_length()

    rows: List[List[Any]] = []
    points: List[PointResult] = []
    before = session.counters()
    for tick in range(args.ticks):
        lo = args.window + tick * args.slide
        tick_started = time.perf_counter()
        session.push(stream[lo : lo + args.slide])
        if args.session == "lis":
            answer = session.lis_length()
            m = len(session)
            x = rng.integers(0, m, size=max(0, args.probes))
            y = np.minimum(m, x + rng.integers(1, max(2, m // 3), size=max(0, args.probes)))
            probe_values = session.rank_intervals(x, y).tolist() if args.probes > 0 else []
        else:
            answer = session.lcs_length()
            probe_values = []
        tick_seconds = time.perf_counter() - tick_started
        after = session.counters()
        metrics = {
            "answer": int(answer),
            "window": int(after["window"]),
            "probes": [int(v) for v in probe_values],
            "multiplies": after["multiplies"] - before["multiplies"],
            "blocks_rebuilt": after["blocks_built"] - before["blocks_built"],
        }
        before = after
        points.append(PointResult(params={"tick": tick}, metrics=metrics, seconds=tick_seconds))
        rows.append(
            [
                tick,
                answer,
                metrics["window"],
                f"{tick_seconds * 1000:.1f} ms",
                metrics["multiplies"],
                metrics["blocks_rebuilt"],
            ]
        )
    seconds = time.perf_counter() - started

    label = "lis" if args.session == "lis" else "lcs"
    print(
        format_block(
            f"streaming {label} session over {describe} "
            f"(warm build {warm_seconds * 1000:.0f} ms, {label}={warm_answer})",
            format_table(["tick", label, "window", "seconds", "multiplies", "blocks"], rows)
            if rows
            else "(no ticks requested)",
        ),
        file=out,
    )
    counters = session.counters()
    amortised = (seconds - warm_seconds) / args.ticks if args.ticks else 0.0
    print(
        f"{args.ticks} ticks in {seconds - warm_seconds:.3f}s "
        f"(amortised {amortised * 1000:.1f} ms/tick); "
        f"{counters['multiplies']} multiplies, {counters['blocks_built']} blocks built, "
        f"node store {counters['node_store']['entries']} entries / "
        f"{counters['node_store']['nbytes']} bytes",
        file=out,
    )
    if args.artifact is not None:
        document = _stream_artifact(args, session, points, seconds)
        write_document(document, args.artifact)
        print(f"wrote artifact: {args.artifact}", file=out)
    return 0


def _cmd_perf(args, out) -> int:
    from ..perf import (
        DEFAULT_SPEEDUP_FLOOR,
        DEFAULT_TOLERANCE,
        check_speedup,
        compare_documents,
        format_report,
        run_perf,
    )

    document = run_perf(quick=args.quick, repeats=max(1, int(args.repeats)))
    rows = [
        [
            point["params"]["case"],
            point["params"]["group"],
            f"{point['metrics']['seconds'] * 1000:.1f} ms",
            f"{point['metrics']['normalized']:.2f}",
        ]
        for point in document["points"]
    ]
    suffix = " [quick]" if args.quick else ""
    print(
        format_block(
            f"{document['title']}{suffix}",
            format_table(["case", "group", "seconds", "normalized"], rows),
        ),
        file=out,
    )
    perf = document["perf"]
    speedup = perf["multiply_speedup_vs_reference"]
    print(
        f"calibration kernel {perf['calibration_seconds'] * 1000:.2f} ms; "
        f"iterative vs reference multiply speedup at n={perf['headline_n']}: "
        + (f"{speedup:.2f}x" if speedup is not None else "n/a"),
        file=out,
    )

    status = 0
    if not args.no_check:
        floor = (
            args.speedup_floor
            if args.speedup_floor is not None
            else (2.0 if args.quick else DEFAULT_SPEEDUP_FLOOR)
        )
        failure = check_speedup(document, floor=floor)
        if failure is not None:
            print(f"perf speedup check FAILED: {failure}", file=sys.stderr)
            status = 1
        if os.path.exists(args.baseline):
            baseline = load_artifact(args.baseline)
            tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
            report = compare_documents(document, baseline, tolerance=tolerance)
            print(format_report(report), file=out if report["ok"] else sys.stderr)
            if not report["ok"]:
                status = 1
        else:
            print(f"no baseline at {args.baseline}; regression check skipped", file=out)

    if args.json is not None:
        write_document(document, args.json)
        print(f"wrote artifact: {args.json}", file=out)
    if args.record_trend is not None:
        from ..perf.trend import record_trend

        row = record_trend(document, args.record_trend)
        print(
            f"recorded trend row for commit {row['commit']} -> {args.record_trend}",
            file=out,
        )
    return status


def _cmd_report(args, out) -> int:
    import glob

    from ..obs.report import render_report

    paths = list(args.paths) or sorted(glob.glob("results/*.json"))
    if not paths:
        print(
            "no artifacts found (run some experiments with --json, or pass paths)",
            file=sys.stderr,
        )
        return 1
    text = render_report(
        paths,
        trend_path=args.trend,
        capacity_qps=args.capacity,
        slo=args.slo,
    )
    print(text, file=out)
    return 0


def _cmd_validate(path: str, out) -> int:
    try:
        document = load_artifact(path)
    except (OSError, json.JSONDecodeError, ArtifactError) as exc:
        print(f"INVALID: {path}: {exc}", file=sys.stderr)
        return 1
    print(
        f"OK: {path} (experiment={document['experiment']}, "
        f"schema_version={document['schema_version']}, points={len(document['points'])})",
        file=out,
    )
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(out)
        return 2
    try:
        if args.command == "list":
            return _cmd_list(args.json, out)
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "serve":
            return _cmd_serve(args, out)
        if args.command == "serve-http":
            return _cmd_serve_http(args, out)
        if args.command == "stream":
            return _cmd_stream(args, out)
        if args.command == "perf":
            return _cmd_perf(args, out)
        if args.command == "report":
            return _cmd_report(args, out)
        if args.command == "validate":
            return _cmd_validate(args.path, out)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"consistency check FAILED: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader (e.g. `| head`) closed the pipe mid-print.  Redirect
        # stdout to devnull so the interpreter's flush-at-exit does not
        # raise a second time, and exit quietly like other unix tools.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2
