"""Steadiness check: run one workload N times and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload build_cold --runs 10 --first-seed 100

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...) and
the ``run_seconds`` window of ``BENCHMARK.json``.  For every end-to-end
metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and IQR/median beside the metric's
bound from ``BENCHMARK.json``, then the host-speed calibration and steal
share of every run, so a set of runs that disagrees with another can be
traced to host drift.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread_table(results, bounds):
    """Rows of ``(metric, median, q1, q3, iqr/median, bound)``."""
    rows = []
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(values) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        rows.append((name, med, q1, q3, (q3 - q1) / med if med else float("inf"), bound))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results, diagnostics = [], []
    for k in range(args.runs):
        seed = args.first_seed + k
        proc = subprocess.run(
            [sys.executable, *bench["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"run {k} (seed {seed}) failed: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result, diag = json.loads(lines[-1]), json.loads(lines[-2])["diagnostics"]
        results.append(result)
        diagnostics.append(diag)
        print(
            f"run {k} seed {seed}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} "
            + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True,
        )
    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s")
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>9}{'bound':>7}")
    for name, med, q1, q3, spread, bound in spread_table(results, bounds):
        flag = "" if spread < bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
        print(f"{name:<18}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{spread:>9.1%}{bound:>7.0%}{flag}")
    print("host per run: calibration before -> after (python loop ms / numpy kernel ms),"
          " then the steal share over the run; program CPU | generator CPU")
    for k, d in enumerate(diagnostics):
        cells = []
        for role in ("program", "generator"):
            before, after = d["host"]["before"][role], d["host"]["after"][role]
            steal = d["host"]["steal_share"].get(role, float("nan"))
            cells.append(f"{before['python_loop_ms']:.1f}/{before['numpy_kernel_ms']:.1f}"
                         f" -> {after['python_loop_ms']:.1f}/{after['numpy_kernel_ms']:.1f}"
                         f" steal {steal:.1%}")
        print(f"  run {k}: " + " | ".join(cells))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
