"""Run one workload of the benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload query_warm --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a traced process and the
budget table.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
diagnostics (CPU layout, host-speed calibration, set-up times).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402

WORKLOADS = ("query_warm", "build_cold", "mpc_lis")
#: Workloads whose ops wait on idle CPUs waking up (see ``common.busy_cpus``).
BUSY_CPU_WORKLOADS = ("query_warm",)


def load_bench() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def metric_units() -> dict:
    """``metric name -> unit``, from ``BENCHMARK.json``."""
    bench = load_bench()
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=load_bench()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.require_program()
        from perfbench import workloads

        layout = common.cpu_layout()
        common.pin(os.getpid(), layout["generator"])
        calibration = {"before": common.host_calibration(layout)}
        ticks = common.cpu_ticks()
        keep_busy = args.workload in BUSY_CPU_WORKLOADS
        with common.busy_cpus(layout) if keep_busy else contextlib.nullcontext():
            if args.workload == "mpc_lis":
                outcome = workloads.run_mpc(args.seed, args.seconds, bool(args.trace), layout)
            else:
                outcome = workloads.run_server(
                    args.workload, args.seed, args.seconds, bool(args.trace), layout
                )
        calibration["steal_share"] = common.steal_share(ticks, common.cpu_ticks(), layout)
        calibration["after"] = common.host_calibration(layout)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in outcome.report:
        print(line)
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    diagnostics = dict(outcome.diagnostics, cpu_layout=layout, host=calibration)
    print(json.dumps({"diagnostics": diagnostics}))
    units = metric_units()
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
