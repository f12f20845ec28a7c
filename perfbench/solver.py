"""The ``mpc_lis`` solver process: Theorem 1.3 LIS on the MPC simulator.

Usage: ``python perfbench/solver.py SEED TRACE``

Builds the seeded inputs, runs one warm-up solve and prints ``ready``.  It
then reads one command from stdin: ``quit``, or ``go SECONDS``, which solves
the inputs in turn, one at a time, for SECONDS and prints one JSON line
with every solve's latency, answer and cluster statistics.  With TRACE=1
the layer functions record spans and the line carries per-solve self times.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common, inputs, tracing  # noqa: E402

DELTA = 0.5
PROGRAM_MODULES = [
    "repro.lis.mpc_lis",
    "repro.mpc_monge.constant_round",
    "repro.mpc_monge.subpermutation",
    "repro.mpc.cluster",
    "repro.core.seaweed",
    "repro.core.dense",
    "repro.core.combine",
    "repro.lis.semilocal",
]


def solve(sequence):
    """One solve: a fresh cluster, then the O(log n)-round pipeline."""
    from repro.lis.mpc_lis import mpc_lis_length
    from repro.mpc.cluster import MPCCluster

    cluster = MPCCluster(len(sequence), delta=DELTA)
    length = mpc_lis_length(cluster, sequence)
    stats = cluster.stats
    return length, stats.num_rounds, stats.total_communication, stats.peak_machine_load


def main(argv) -> int:
    seed, traced = int(argv[0]), argv[1] == "1"
    common.require_program()
    tracing.import_program(PROGRAM_MODULES)
    if traced:
        tracing.install(tracing.MPC_LAYERS + tracing.CORE_LAYERS)
    sequences = inputs.mpc_inputs(seed)
    solve(sequences[0])
    print("ready", flush=True)
    command = sys.stdin.readline().split()
    if not command or command[0] != "go":
        return 0
    seconds = float(command[1])
    tracing.SPANS.clear()
    solves = []
    started = time.perf_counter()
    k = 0
    while time.perf_counter() - started < seconds:
        index = k % len(sequences)
        token = tracing.set_op(k)
        t0 = time.perf_counter()
        length, rounds, words, peak = solve(sequences[index])
        latency = time.perf_counter() - t0
        tracing.reset_op(token)
        solves.append([k, index, latency, length, rounds, words, peak])
        k += 1
    window = time.perf_counter() - started
    result = {
        "window_s": window,
        "solves": solves,
        "peak_rss_mb": common.peak_rss_mb(os.getpid()),
        "per_op": (
            {str(op): row for op, row in tracing.aggregate(tracing.SPANS).items()}
            if traced
            else {}
        ),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
