"""The built-in experiment specs (one per reproduced table/figure/claim).

Each spec below is the single source of truth for one experiment: the
``benchmarks/bench_*.py`` files are thin pytest wrappers around these
registrations, and ``python -m repro run <name>`` executes exactly the same
point functions.  Point functions are module-level and derive all randomness
from explicit seed parameters so the runner can fan them out across worker
processes.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..analysis.serialize import stats_summary, weighted_checksum
from ..baselines import chs23_lis_length, chs23_multiply, kt10_lis_length
from ..core import multiply_permutations, random_permutation
from ..core.permutation import Permutation
from ..core.seaweed import expand_block_results, split_into_blocks
from ..lcs import count_matches, lcs_cluster_for, lcs_length_dp, mpc_lcs_length
from ..lis import (
    lis_length,
    lis_length_seaweed,
    mpc_lis_approx,
    mpc_lis_length,
    value_interval_matrix,
)
from ..mpc import MPCCluster, ScalabilityError
from ..server.loadgen import PERCENTILE_METHOD, percentile_linear
from ..mpc_monge import MongeMPCConfig, mpc_multiply, mpc_multiply_warmup
from ..mpc_monge.constant_round import mpc_combine
from ..service import (
    IndexCache,
    QueryRequest,
    QueryService,
    TargetSpec,
    build_lis_index,
    parse_requests_document,
)
from ..streaming import StreamingLIS
from ..workloads import make_sequence, make_string_pair
from .spec import ExperimentSpec, PointResult, register_spec

__all__ = ["sequential_case_callable"]


def _permutation_pair(n: int, seed: int):
    rng = np.random.default_rng(seed)
    return random_permutation(n, rng), random_permutation(n, rng)


def _workload_permutation_pair(workload: str, n: int, seed: int):
    """Operands for the multiply ablations, shaped by a named workload.

    ``P_A`` is the rank permutation of the named sequence workload (stable
    ranks, so duplicate-heavy workloads like ``zipfian`` still yield a valid
    permutation); ``P_B`` is an independent random permutation.  ``random``
    keeps the historical pair so existing grids reproduce unchanged.
    """
    if workload == "random":
        return _permutation_pair(n, seed)
    sequence = make_sequence(workload, n, seed=seed)
    order = np.argsort(sequence, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(seed + 1)
    return Permutation(ranks), random_permutation(n, rng)


def _series_by(points: List[PointResult], group_key: str, x: str, y: str) -> Dict[Any, List[Any]]:
    """Group one metric into per-group series ordered by ``x``."""
    groups: Dict[Any, List[Any]] = {}
    for point in sorted(points, key=lambda p: p.row().get(x, 0)):
        row = point.row()
        if row.get(y) is None:
            continue
        groups.setdefault(row[group_key], []).append(row[y])
    return groups


# --------------------------------------------------------------------- table1
# E1 — Table 1: rounds / scalability / exactness of the four LIS algorithms.

TABLE1_ALGORITHMS: Dict[str, str] = {
    "kt10": "KT10 [KT10a]",
    "ims17_approx": "IMS17-style (1+eps)",
    "chs23": "CHS23",
    "this_paper": "This paper",
}


def _table1_algorithm(name: str, epsilon: float) -> Callable[[MPCCluster, np.ndarray], int]:
    if name == "kt10":
        return kt10_lis_length
    if name == "ims17_approx":
        return lambda cluster, seq: mpc_lis_approx(cluster, seq, epsilon=epsilon).length
    if name == "chs23":
        return chs23_lis_length
    if name == "this_paper":
        return mpc_lis_length
    raise KeyError(f"unknown Table 1 algorithm {name!r}")


def run_table1_point(
    algorithm: str, delta: float, n: int, seed: int = 1, epsilon: float = 0.1, backend: str = "serial"
) -> Dict[str, Any]:
    seq = make_sequence("random", n, seed=seed)
    exact = lis_length(seq)
    fn = _table1_algorithm(algorithm, epsilon)
    try:
        cluster = MPCCluster(n, delta=delta, backend=backend)
        value = int(fn(cluster, seq))
        return {
            "label": TABLE1_ALGORITHMS[algorithm],
            "rounds": cluster.stats.num_rounds,
            "scalable": "yes",
            "answer": "exact" if value == exact else f"approx ({value}/{exact})",
            "lis": exact,
            "stats": stats_summary(cluster.stats),
        }
    except ScalabilityError:
        return {
            "label": TABLE1_ALGORITHMS[algorithm],
            "rounds": None,
            "scalable": "no (delta too large)",
            "answer": None,
            "lis": exact,
            "stats": None,
        }


def check_table1(points: List[PointResult]) -> None:
    # The exactness column is the claim; round counts at one fixed n are
    # reported, not compared (the asymptotic comparison is `lis_rounds`).
    for point in points:
        row = point.row()
        if row["algorithm"] in ("chs23", "this_paper"):
            assert row["answer"] == "exact", (
                f"{row['algorithm']} must be exact at delta={row['delta']}, got {row['answer']}"
            )
        if row["algorithm"] == "this_paper":
            assert row["scalable"] == "yes", "this paper must be fully scalable"


def timer_table1(delta: float = 0.5, n: int = 4096) -> Callable[[], Any]:
    # Timer factories take optional kwargs so the parametrized benchmark
    # wrappers can time per-parameter variants; the CLI never passes any.
    seq = make_sequence("random", n, seed=1)
    return lambda: mpc_lis_length(MPCCluster(n, delta=delta), seq)


register_spec(
    ExperimentSpec(
        name="table1",
        title="Table 1 reproduction: massively parallel LIS algorithms",
        claim="Table 1 (Theorems 1.1-1.3 vs prior work)",
        grid={"delta": [0.25, 0.5], "algorithm": list(TABLE1_ALGORITHMS)},
        fixed={"n": 4096, "seed": 1, "epsilon": 0.1, "backend": "serial"},
        quick_fixed={"n": 512},
        point=run_table1_point,
        columns=["label", "delta", "rounds", "scalable", "answer"],
        checks=check_table1,
        timer=timer_table1,
        bench_file="benchmarks/bench_table1.py",
    )
)


# ------------------------------------------------------------ multiply_rounds
# E2 — Theorem 1.1: O(1)-round multiplication vs the warm-up and CHS23.

MULTIPLY_ALGORITHMS: Dict[str, str] = {
    "this_paper": "this paper",
    "warmup": "warm-up (fanin 2)",
    "chs23": "CHS23-style",
}


def run_multiply_point(
    algorithm: str, n: int, delta: float, seed: int = 2024, backend: str = "serial"
) -> Dict[str, Any]:
    pa, pb = _permutation_pair(n, seed + n)
    cluster = MPCCluster(n, delta=delta, backend=backend)
    if algorithm == "this_paper":
        result = mpc_multiply(cluster, pa, pb)
    elif algorithm == "warmup":
        result = mpc_multiply_warmup(cluster, pa, pb)
    elif algorithm == "chs23":
        result = chs23_multiply(cluster, pa, pb)
    else:
        raise KeyError(f"unknown multiply algorithm {algorithm!r}")
    if n <= 16384:
        assert result == multiply_permutations(pa, pb), f"{algorithm} produced a wrong product at n={n}"
    summary = stats_summary(cluster.stats)
    return {
        "label": MULTIPLY_ALGORITHMS[algorithm],
        "rounds": summary["rounds"],
        "peak_machine_load": summary["peak_machine_load"],
        "space_per_machine": summary["space_per_machine"],
        "total_communication": summary["total_communication"],
    }


def check_multiply_rounds(points: List[PointResult]) -> None:
    series = _series_by(points, "algorithm", "n", "rounds")
    main, warm = series.get("this_paper"), series.get("warmup")
    if main and warm and len(main) >= 2 and len(warm) >= 2:
        growth_main = main[-1] / main[0]
        growth_warm = warm[-1] / warm[0]
        assert growth_main < growth_warm, (
            f"constant-round algorithm grew {growth_main:.2f}x vs warm-up {growth_warm:.2f}x"
        )


def timer_multiply_rounds() -> Callable[[], Any]:
    n, delta = 4096, 0.5
    pa, pb = _permutation_pair(n, 2024 + n)
    return lambda: mpc_multiply(MPCCluster(n, delta=delta), pa, pb)


register_spec(
    ExperimentSpec(
        name="multiply_rounds",
        title="Multiplication rounds vs n (Theorem 1.1)",
        claim="Theorem 1.1 (O(1)-round subunit-Monge multiplication)",
        grid={"n": [1024, 4096, 16384, 65536], "algorithm": list(MULTIPLY_ALGORITHMS)},
        fixed={"delta": 0.5, "seed": 2024, "backend": "serial"},
        quick_grid={"n": [1024, 4096], "algorithm": list(MULTIPLY_ALGORITHMS)},
        point=run_multiply_point,
        columns=["n", "label", "rounds", "peak_machine_load", "space_per_machine"],
        checks=check_multiply_rounds,
        timer=timer_multiply_rounds,
        bench_file="benchmarks/bench_multiply_rounds.py",
    )
)


# ---------------------------------------------------------- scalability_delta
# E3 — Fully-scalable claim: rounds and space across the whole delta range.


def run_scalability_point(
    delta: float, workload: str = "random", n: int = 8192, seed: int = 2024, backend: str = "serial"
) -> Dict[str, Any]:
    pa, pb = _workload_permutation_pair(workload, n, seed)
    cluster = MPCCluster(n, delta=delta, backend=backend)
    mpc_multiply(cluster, pa, pb)
    summary = stats_summary(cluster.stats)
    assert summary["peak_machine_load"] <= summary["space_per_machine"], (
        f"space budget violated at delta={delta} ({workload})"
    )
    return summary


def check_scalability(points: List[PointResult]) -> None:
    for point in points:
        row = point.row()
        assert row["peak_machine_load"] <= row["space_per_machine"], (
            f"space budget violated at delta={row['delta']}"
        )


def timer_scalability() -> Callable[[], Any]:
    n, delta = 8192, 0.5
    pa, pb = _permutation_pair(n, 2024)
    return lambda: mpc_multiply(MPCCluster(n, delta=delta), pa, pb)


register_spec(
    ExperimentSpec(
        name="scalability_delta",
        title="Scalability sweep: rounds and space across delta (Theorem 1.2)",
        claim="Theorem 1.2 (fully scalable: every 0 < delta < 1)",
        grid={
            "delta": [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
            "workload": ["random", "zipfian", "block_sorted_noisy", "adversarial_alternating"],
        },
        fixed={"n": 8192, "seed": 2024, "backend": "serial"},
        quick_grid={"delta": [0.25, 0.5, 0.75], "workload": ["random", "zipfian"]},
        quick_fixed={"n": 1024},
        point=run_scalability_point,
        columns=["delta", "workload", "machines", "space_per_machine", "rounds", "peak_machine_load", "space_utilisation"],
        checks=check_scalability,
        timer=timer_scalability,
        bench_file="benchmarks/bench_scalability_delta.py",
    )
)


# ----------------------------------------------------------------- lis_rounds
# E4 — Theorem 1.3: exact LIS round growth vs the CHS23-style baseline.


def run_lis_rounds_point(workload: str, n: int, delta: float, backend: str = "serial") -> Dict[str, Any]:
    seq = make_sequence(workload, n, seed=n)
    expected = lis_length(seq)
    ours = MPCCluster(n, delta=delta, backend=backend)
    assert mpc_lis_length(ours, seq) == expected, "this paper's LIS is not exact"
    chs = MPCCluster(n, delta=delta, backend=backend)
    assert chs23_lis_length(chs, seq) == expected, "CHS23 baseline LIS is not exact"
    return {
        "lis": expected,
        "rounds": ours.stats.num_rounds,
        "rounds_chs23": chs.stats.num_rounds,
        "stats": stats_summary(ours.stats),
    }


def check_lis_rounds(points: List[PointResult]) -> None:
    for point in points:
        row = point.row()
        assert row["rounds"] < row["rounds_chs23"], (
            f"this paper must beat CHS23 rounds at n={row['n']} ({row['workload']})"
        )


def timer_lis_rounds() -> Callable[[], Any]:
    n, delta = 512, 0.5
    seq = make_sequence("random", n, seed=n)
    return lambda: mpc_lis_length(MPCCluster(n, delta=delta), seq)


register_spec(
    ExperimentSpec(
        name="lis_rounds",
        title="Exact LIS rounds vs n (Theorem 1.3)",
        claim="Theorem 1.3 (exact LIS in O(log n) rounds)",
        grid={"workload": ["random", "planted"], "n": [512, 2048, 8192]},
        fixed={"delta": 0.5, "backend": "serial"},
        quick_grid={"workload": ["random", "planted"], "n": [512, 1024]},
        point=run_lis_rounds_point,
        columns=["workload", "n", "lis", "rounds", "rounds_chs23"],
        checks=check_lis_rounds,
        timer=timer_lis_rounds,
        bench_file="benchmarks/bench_lis_rounds.py",
    )
)


# ----------------------------------------------------------------- sequential
# E5 — Sequential substrate wall-clock sanity checks (not a paper claim).

SEQUENTIAL_TASKS = ("multiply", "seaweed_lis", "patience", "semilocal_matrix")


def sequential_case_callable(task: str, n: int) -> Callable[[], Any]:
    """The timed kernel of one sequential case (shared with pytest-benchmark).

    Each task keeps the seed convention of the original benchmark harness
    (multiply: 2024, sequences: seed=n, semilocal: seed=7) so timings stay
    comparable across PRs; there is deliberately no global seed knob.
    """
    if task == "multiply":
        pa, pb = _permutation_pair(n, 2024)
        return lambda: multiply_permutations(pa, pb)
    if task == "seaweed_lis":
        seq = make_sequence("random", n, seed=n)
        return lambda: lis_length_seaweed(seq)
    if task == "patience":
        seq = make_sequence("random", n, seed=n)
        return lambda: lis_length(seq)
    if task == "semilocal_matrix":
        seq = make_sequence("random", n, seed=7)
        return lambda: value_interval_matrix(seq)
    raise KeyError(f"unknown sequential task {task!r}")


def _sequential_point(case: Any, backend: str = "serial") -> Dict[str, Any]:
    # `backend` is accepted for CLI uniformity (`--backend` works on every
    # spec) but unused: the sequential substrate has no cluster to schedule.
    if not isinstance(case, dict) or not {"task", "n"} <= set(case):
        raise ValueError(
            "the sequential experiment's grid values are objects like "
            f"{{'task': 'multiply', 'n': 2048}}; got {case!r} "
            "(this grid cannot be overridden with the CLI --set flag)"
        )
    return run_sequential_point(case["task"], case["n"])


def run_sequential_point(task: str, n: int) -> Dict[str, Any]:
    kernel = sequential_case_callable(task, n)
    started = time.perf_counter()
    result = kernel()
    seconds = time.perf_counter() - started
    if task == "multiply":
        ok = result.size == n
    elif task in ("seaweed_lis", "patience"):
        ok = result == lis_length(make_sequence("random", n, seed=n))
    else:
        ok = result.lis_length() == lis_length(make_sequence("random", n, seed=7))
    return {"task": task, "n": n, "kernel_seconds": seconds, "ok": bool(ok)}


def check_sequential(points: List[PointResult]) -> None:
    for point in points:
        row = point.row()
        assert row["ok"], f"sequential task {row['task']} at n={row['n']} returned a wrong answer"


def timer_sequential() -> Callable[[], Any]:
    return sequential_case_callable("multiply", 2048)


register_spec(
    ExperimentSpec(
        name="sequential",
        title="Sequential substrate wall-clock (seaweed framework sanity)",
        claim="substrate sanity check (no corresponding paper experiment)",
        grid={
            "case": [
                {"task": "multiply", "n": 2048},
                {"task": "multiply", "n": 8192},
                {"task": "seaweed_lis", "n": 1024},
                {"task": "seaweed_lis", "n": 4096},
                {"task": "patience", "n": 4096},
                {"task": "patience", "n": 65536},
                {"task": "semilocal_matrix", "n": 2048},
            ]
        },
        quick_grid={
            "case": [
                {"task": "multiply", "n": 1024},
                {"task": "seaweed_lis", "n": 512},
                {"task": "patience", "n": 4096},
                {"task": "semilocal_matrix", "n": 512},
            ]
        },
        point=_sequential_point,
        fixed={"backend": "serial"},
        columns=["task", "n", "kernel_seconds", "ok"],
        checks=check_sequential,
        timer=timer_sequential,
        bench_file="benchmarks/bench_sequential.py",
    )
)


# ------------------------------------------------------------------------ lcs
# E6 — Corollary 1.3.1: LCS rounds and total space via Hunt-Szymanski.

LCS_WORKLOADS: Dict[str, Dict[str, Any]] = {
    "random16": {"label": "random, alphabet 16", "workload": "random_pair", "alphabet": 16},
    "random4": {"label": "random, alphabet 4", "workload": "random_pair", "alphabet": 4},
    "correlated10": {
        "label": "correlated (10% mutation)",
        "workload": "correlated_pair",
        "alphabet": 16,
        "mutation_rate": 0.1,
    },
}


def run_lcs_point(workload: str, n: int, backend: str = "serial") -> Dict[str, Any]:
    try:
        case = LCS_WORKLOADS[workload]
    except KeyError:
        raise KeyError(
            f"unknown lcs workload {workload!r}; available: {sorted(LCS_WORKLOADS)}"
        ) from None
    kwargs: Dict[str, Any] = {"alphabet": case["alphabet"]}
    if case["workload"] == "correlated_pair":
        kwargs["mutation_rate"] = case["mutation_rate"]
        seed = n
    else:
        seed = n + case["alphabet"]
    s, t = make_string_pair(case["workload"], n, seed=seed, **kwargs)
    matches = count_matches(s, t)
    cluster = lcs_cluster_for(len(s), len(t), matches, backend=backend)
    result = mpc_lcs_length(cluster, s, t)
    assert result.length == lcs_length_dp(s, t), f"MPC LCS is not exact on {workload}"
    return {
        "label": case["label"],
        "matches": int(matches),
        "machines": cluster.num_machines,
        "space_per_machine": cluster.space_per_machine,
        "rounds": cluster.stats.num_rounds,
        "lcs": int(result.length),
    }


def timer_lcs() -> Callable[[], Any]:
    n = 256
    s, t = make_string_pair("random_pair", n, seed=3, alphabet=16)
    return lambda: mpc_lcs_length(lcs_cluster_for(n, n, count_matches(s, t)), s, t)


register_spec(
    ExperimentSpec(
        name="lcs",
        title="LCS via Hunt-Szymanski (Corollary 1.3.1)",
        claim="Corollary 1.3.1 (exact LCS in O(log n) rounds)",
        grid={"workload": list(LCS_WORKLOADS)},
        fixed={"n": 256, "backend": "serial"},
        quick_fixed={"n": 96},
        point=run_lcs_point,
        columns=["label", "matches", "machines", "space_per_machine", "rounds", "lcs"],
        timer=timer_lcs,
        bench_file="benchmarks/bench_lcs.py",
    )
)


# -------------------------------------------------------------- communication
# E7 — Communication volume per round of the MPC algorithms.


def run_communication_point(n: int, delta: float, seed: int = 2024, backend: str = "serial") -> Dict[str, Any]:
    pa, pb = _permutation_pair(n, seed + n)
    mult = MPCCluster(n, delta=delta, backend=backend)
    mpc_multiply(mult, pa, pb)
    seq = make_sequence("random", n, seed=n)
    lis = MPCCluster(n, delta=delta, backend=backend)
    mpc_lis_length(lis, seq)
    return {
        "multiply_total": mult.stats.total_communication,
        "multiply_max_round": mult.stats.max_round_communication,
        "multiply_words_per_elem": mult.stats.total_communication / n,
        "lis_total": lis.stats.total_communication,
        "lis_words_per_elem": lis.stats.total_communication / n,
    }


def timer_communication() -> Callable[[], Any]:
    n, delta = 1024, 0.5
    pa, pb = _permutation_pair(n, 2024 + n)
    return lambda: mpc_multiply(MPCCluster(n, delta=delta), pa, pb)


register_spec(
    ExperimentSpec(
        name="communication",
        title="Total communication (words): multiply and LIS",
        claim="communication accounting of Theorems 1.1 / 1.3",
        grid={"n": [1024, 4096, 16384]},
        fixed={"delta": 0.5, "seed": 2024, "backend": "serial"},
        quick_grid={"n": [1024, 4096]},
        point=run_communication_point,
        columns=[
            "n",
            "multiply_total",
            "multiply_max_round",
            "multiply_words_per_elem",
            "lis_total",
            "lis_words_per_elem",
        ],
        timer=timer_communication,
        bench_file="benchmarks/bench_communication.py",
    )
)


# ------------------------------------------------------------- fanin_ablation
# E8 — Ablation: fan-in H of the multiway combine.


def run_fanin_point(
    fanin: int, workload: str = "random", n: int = 8192, delta: float = 0.5,
    seed: int = 2024, backend: str = "serial",
) -> Dict[str, Any]:
    """One fan-in measurement: ``fanin`` sweeps the MPC combine's H."""
    pa, pb = _workload_permutation_pair(workload, n, seed)
    cluster = MPCCluster(n, delta=delta, backend=backend)
    config = MongeMPCConfig(fanin=fanin, tree_arity=fanin)
    product = mpc_multiply(cluster, pa, pb, config)
    assert product == multiply_permutations(pa, pb), f"wrong product at fan-in {fanin} ({workload})"
    return {
        "rounds": cluster.stats.num_rounds,
        "peak_machine_load": cluster.stats.peak_machine_load,
        "total_communication": cluster.stats.total_communication,
    }


def check_fanin(points: List[PointResult]) -> None:
    # Per workload: larger fan-in must not deepen the recursion.
    by_workload: Dict[Any, Dict[int, int]] = {}
    for point in points:
        row = point.row()
        by_workload.setdefault(row.get("workload", "random"), {})[row["fanin"]] = row["rounds"]
    for workload, rounds in by_workload.items():
        if len(rounds) >= 2:
            assert rounds[max(rounds)] <= rounds[min(rounds)], (
                f"larger fan-in must not use more rounds than the smallest fan-in ({workload})"
            )


def timer_fanin() -> Callable[[], Any]:
    n, delta = 8192, 0.5
    pa, pb = _permutation_pair(n, 2024)
    config = MongeMPCConfig(fanin=8, tree_arity=8)
    return lambda: mpc_multiply(MPCCluster(n, delta=delta), pa, pb, config)


register_spec(
    ExperimentSpec(
        name="fanin_ablation",
        title="Fan-in ablation of the multiway combine",
        claim="Section 3 (fan-in H = n^((1-delta)/10) trade-off)",
        grid={
            "fanin": [2, 4, 8, 16],
            "workload": ["random", "zipfian", "block_sorted_noisy", "adversarial_alternating"],
        },
        fixed={"n": 8192, "delta": 0.5, "seed": 2024, "backend": "serial"},
        quick_grid={"fanin": [2, 4, 8, 16], "workload": ["random", "adversarial_alternating"]},
        quick_fixed={"n": 1024},
        point=run_fanin_point,
        columns=["fanin", "workload", "rounds", "peak_machine_load", "total_communication"],
        checks=check_fanin,
        timer=timer_fanin,
        bench_file="benchmarks/bench_fanin_ablation.py",
    )
)


# ------------------------------------------------------------- space_overhead
# E9 — Ablation: grid spacing G and the subgrid-instance space overhead.


@functools.lru_cache(maxsize=4)
def _space_overhead_inputs(n: int, num_blocks: int, seed: int):
    # Shared read-only setup for every grid_size point of one sweep: the
    # sequential reference product and block split do not depend on G.
    pa, pb = _permutation_pair(n, seed)
    expected = multiply_permutations(pa, pb)
    split = split_into_blocks(pa, pb, num_blocks)
    results = [multiply_permutations(a, b) for a, b in zip(split.a_blocks, split.b_blocks)]
    rows_, cols_, colors_ = expand_block_results(results, split)
    return expected, rows_, cols_, colors_


def run_space_overhead_point(
    grid_size: int, n: int, num_blocks: int, delta: float, seed: int = 2024, backend: str = "serial"
) -> Dict[str, Any]:
    expected, rows_, cols_, colors_ = _space_overhead_inputs(n, num_blocks, seed)
    cluster = MPCCluster(n, delta=delta, backend=backend)
    merged, report = mpc_combine(
        cluster, rows_, cols_, colors_, num_blocks, n, MongeMPCConfig(grid_size=grid_size)
    )
    assert merged.as_permutation() == expected, f"wrong combine result at G={grid_size}"
    return {
        "grid_lines": report.num_grid_lines,
        "active_subgrids": report.num_active_subgrids,
        "max_instance_words": report.max_instance_words,
        "space_per_machine": cluster.space_per_machine,
        "combine_rounds": cluster.stats.num_rounds,
    }


def timer_space_overhead() -> Callable[[], Any]:
    n, num_blocks, delta = 4096, 4, 0.5
    _, rows_, cols_, colors_ = _space_overhead_inputs(n, num_blocks, 2024)
    return lambda: mpc_combine(
        MPCCluster(n, delta=delta), rows_, cols_, colors_, num_blocks, n, MongeMPCConfig(grid_size=64)
    )


register_spec(
    ExperimentSpec(
        name="space_overhead",
        title="Grid-size / subgrid space-overhead ablation",
        claim="Section 3.3 (subgrid instance packaging overhead)",
        grid={"grid_size": [16, 32, 64, 128]},
        fixed={"n": 4096, "num_blocks": 4, "delta": 0.5, "seed": 2024, "backend": "serial"},
        quick_grid={"grid_size": [16, 32]},
        quick_fixed={"n": 1024},
        point=run_space_overhead_point,
        columns=[
            "grid_size",
            "grid_lines",
            "active_subgrids",
            "max_instance_words",
            "space_per_machine",
            "combine_rounds",
        ],
        timer=timer_space_overhead,
        bench_file="benchmarks/bench_space_overhead.py",
    )
)


# ----------------------------------------------------------- backend_wallclock
# E10 — Execution engine: wall-clock and accounting identity across backends.


def run_backend_wallclock_point(backend: str, n: int, delta: float, seed: int = 2024) -> Dict[str, Any]:
    import os

    pa, pb = _permutation_pair(n, seed + n)
    cluster = MPCCluster(n, delta=delta, backend=backend)
    started = time.perf_counter()
    result = mpc_multiply(cluster, pa, pb)
    multiply_seconds = time.perf_counter() - started

    seq = make_sequence("random", n, seed=seed)
    lis_cluster = MPCCluster(n, delta=delta, backend=backend)
    started = time.perf_counter()
    lis_value = mpc_lis_length(lis_cluster, seq)
    lis_seconds = time.perf_counter() - started

    # A cheap order-sensitive digest of the product; identical across backends
    # iff the output permutations are bit-identical.
    checksum = weighted_checksum(result.row_to_col)
    return {
        "backend": backend,
        "multiply_seconds": multiply_seconds,
        "lis_seconds": lis_seconds,
        "rounds": cluster.stats.num_rounds,
        "total_communication": cluster.stats.total_communication,
        "peak_machine_load": cluster.stats.peak_machine_load,
        "lis_rounds": lis_cluster.stats.num_rounds,
        "lis": int(lis_value),
        "product_checksum": checksum,
        "cpu_count": os.cpu_count(),
    }


def check_backend_wallclock(points: List[PointResult]) -> None:
    # The scientific assertion: backends change wall-clock only.  All points
    # of one run share the same fixed n, so every simulated quantity must be
    # identical across the swept backends.
    invariant = ("rounds", "total_communication", "peak_machine_load", "lis_rounds", "lis", "product_checksum")
    rows = [point.row() for point in points]
    reference = rows[0]
    for row in rows[1:]:
        for key in invariant:
            assert row[key] == reference[key], (
                f"backend {row['backend']} diverges from {reference['backend']} "
                f"on {key}: {row[key]} != {reference[key]}"
            )


def timer_backend_wallclock() -> Callable[[], Any]:
    n, delta = 4096, 0.5
    pa, pb = _permutation_pair(n, 2024 + n)
    return lambda: mpc_multiply(MPCCluster(n, delta=delta, backend="process"), pa, pb)


register_spec(
    ExperimentSpec(
        name="backend_wallclock",
        title="Execution-backend wall-clock comparison (serial vs thread vs process)",
        claim="execution-engine invariant: backends change wall-clock only",
        grid={"backend": ["serial", "thread", "process"]},
        fixed={"n": 16384, "delta": 0.5, "seed": 2024},
        quick_fixed={"n": 2048},
        point=run_backend_wallclock_point,
        columns=[
            "backend",
            "multiply_seconds",
            "lis_seconds",
            "rounds",
            "peak_machine_load",
            "product_checksum",
            "cpu_count",
        ],
        checks=check_backend_wallclock,
        timer=timer_backend_wallclock,
        bench_file="benchmarks/bench_backend_wallclock.py",
    )
)


# --------------------------------------------------------- service_throughput
# E11 — The serving subsystem: cached batch querying vs rebuild-per-query.


def _service_query_windows(n: int, batch: int, seed: int):
    rng = np.random.default_rng(seed + batch)
    i = rng.integers(0, max(1, n - 1), size=batch)
    widths = rng.integers(1, max(2, n // 4), size=batch)
    j = np.minimum(i + widths, n)
    return i, j


def run_service_throughput_point(
    workload: str,
    batch: int,
    backend: str,
    n: int = 4096,
    seed: int = 7,
    delta: float = 0.5,
    naive_sample: int = 1,
    mode: str = "mpc",
) -> Dict[str, Any]:
    """One serving measurement: cold build, warm cached batch, naive rebuild.

    ``cached_qps`` times a *warm* ``QueryService.submit`` of the whole batch
    (fingerprint lookup + one vectorised dominance-count pass).  The naive
    baseline rebuilds the index from scratch for each of ``naive_sample``
    sampled queries — the pre-subsystem one-shot usage pattern — and its
    per-query cost is what ``speedup`` divides by.
    """
    i_arr, j_arr = _service_query_windows(n, batch, seed)
    target = TargetSpec(kind="sequence", workload=workload, n=n, seed=seed)
    service = QueryService(cache=IndexCache(), mode=mode, delta=delta, backend=backend)
    requests = [
        QueryRequest(op="substring_query", target=target, request_id="batch", i=i_arr, j=j_arr)
    ]
    cold = service.submit(requests)
    warm_started = time.perf_counter()
    warm = service.submit(requests)
    warm_seconds = time.perf_counter() - warm_started
    answers = np.asarray(warm.outcomes[0].result, dtype=np.int64)
    assert warm.outcomes[0].cache_hit and not cold.outcomes[0].cache_hit

    sequence = target.realise()
    naive_sample = max(1, int(naive_sample))
    naive_started = time.perf_counter()
    for q in range(naive_sample):
        rebuilt = build_lis_index(sequence, mode=mode, delta=delta, backend=backend)
        value = int(rebuilt.query_substrings(i_arr[q % batch], j_arr[q % batch])[0])
        assert value == int(answers[q % batch]), "naive rebuild disagrees with cached index"
    naive_per_query = (time.perf_counter() - naive_started) / naive_sample

    cached_qps = batch / warm_seconds if warm_seconds > 0 else float("inf")
    naive_qps = 1.0 / naive_per_query if naive_per_query > 0 else float("inf")
    checksum = weighted_checksum(answers)
    counters = service.cache.counters()
    return {
        "n": n,
        "build_seconds": service.build_seconds,
        "warm_batch_seconds": warm_seconds,
        "cached_qps": cached_qps,
        "naive_per_query_seconds": naive_per_query,
        "naive_qps": naive_qps,
        "speedup": cached_qps / naive_qps,
        "cache_hits": counters["hits"],
        "cache_misses": counters["misses"],
        "cache_evictions": counters["evictions"],
        "cache_hit_rate": counters["hit_rate"],
        "answers_checksum": checksum,
    }


def check_service_throughput(points: List[PointResult]) -> None:
    # (1) Answers are bit-identical across execution backends; (2) cached
    # batch serving beats rebuild-per-query by >= 10x at production sizes.
    by_case: Dict[Any, Dict[str, Any]] = {}
    for point in points:
        row = point.row()
        case = (row["workload"], row["batch"])
        reference = by_case.setdefault(case, row)
        assert row["answers_checksum"] == reference["answers_checksum"], (
            f"backend {row['backend']} answers diverge from {reference['backend']} "
            f"on {case}: {row['answers_checksum']} != {reference['answers_checksum']}"
        )
        assert row["cache_hits"] >= 1 and row["cache_misses"] >= 1, (
            f"cache counters not exercised on {case} ({row['backend']})"
        )
        if row["n"] >= 4096:
            assert row["speedup"] >= 10.0, (
                f"cached batch serving must be >= 10x rebuild-per-query at "
                f"n={row['n']}, got {row['speedup']:.1f}x on {case} ({row['backend']})"
            )


def timer_service_throughput() -> Callable[[], Any]:
    n, batch = 4096, 256
    target = TargetSpec(kind="sequence", workload="random", n=n, seed=7)
    i_arr, j_arr = _service_query_windows(n, batch, 7)
    service = QueryService(cache=IndexCache(), mode="mpc")
    requests = [
        QueryRequest(op="substring_query", target=target, request_id="batch", i=i_arr, j=j_arr)
    ]
    service.submit(requests)  # cold build outside the timed region
    return lambda: service.submit(requests)


# ------------------------------------------------------- streaming_throughput
# E12 — The streaming subsystem: amortised sliding-window recomposition vs
# rebuild-per-tick (the PR-3 one-shot pattern applied to a changing input).


def _streaming_probe_windows(m: int, probes: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, max(1, m), size=probes)
    widths = rng.integers(1, max(2, m // 3), size=probes)
    y = np.minimum(x + widths, m)
    return x, y


def _streaming_oracle_answers(window: np.ndarray, x, y, strict: bool):
    """Rebuild-from-scratch DP oracle for one tick's answers.

    The global answer and every rank-window probe are recomputed by patience
    sorting over the window's rank transform — a completely independent code
    path from the seaweed recomposition.
    """
    from ..lis import lis_length as patience_lis
    from ..lis import rank_transform

    ranks = rank_transform(window, strict=strict)
    answers = [patience_lis(ranks.tolist())]
    for xi, yi in zip(x, y):
        answers.append(patience_lis(ranks[(ranks >= xi) & (ranks < yi)].tolist()))
    return answers


def run_streaming_throughput_point(
    workload: str,
    backend: str,
    n: int = 4096,
    ticks: int = 12,
    slide: int = 64,
    leaf_size: int = 64,
    seed: int = 7,
    probes: int = 4,
    strict: bool = True,
    rebuild_sample: int = 2,
) -> Dict[str, Any]:
    """One streaming measurement: warm build, sliding ticks, rebuild baseline.

    Each tick slides the window by ``slide`` symbols and answers the global
    LIS plus ``probes`` rank-interval queries; every answer is checked
    against the DP oracle on the spot.  ``rebuild_per_tick_seconds`` times
    the cheapest possible per-tick alternative — a from-scratch sequential
    ``value_interval_matrix`` of the current window — and the sampled rebuild
    is also compared bit-for-bit against the aggregator's root product.
    """
    stream = make_sequence(workload, n + ticks * slide, seed=seed).astype(np.float64)
    session = StreamingLIS(window=n, strict=strict, leaf_size=leaf_size, backend=backend)
    warm_started = time.perf_counter()
    session.append(stream[:n])
    session.lis_length()
    warm_build_seconds = time.perf_counter() - warm_started

    before = session.counters()
    answers: List[int] = []
    tick_seconds: List[float] = []
    for tick in range(ticks):
        lo = n + tick * slide
        started = time.perf_counter()
        session.push(stream[lo : lo + slide])
        x, y = _streaming_probe_windows(len(session), probes, seed + tick)
        tick_answers = [session.lis_length()] + session.rank_intervals(x, y).tolist()
        tick_seconds.append(time.perf_counter() - started)
        answers.extend(tick_answers)
        window = session.window_values()
        assert np.array_equal(window, stream[lo + slide - n : lo + slide]), "window drifted"
        assert tick_answers == _streaming_oracle_answers(window, x, y, strict), (
            f"tick {tick} answers diverge from the rebuild-from-scratch DP oracle"
        )
    after = session.counters()

    rebuild_seconds: List[float] = []
    rebuilt = None
    for _ in range(max(1, int(rebuild_sample))):
        started = time.perf_counter()
        rebuilt = value_interval_matrix(session.window_values(), strict=strict)
        rebuild_seconds.append(time.perf_counter() - started)
    assert session.to_semilocal().matrix == rebuilt.matrix, (
        "aggregator root product diverges from the from-scratch seaweed rebuild"
    )

    amortised = float(np.mean(tick_seconds))
    rebuild_per_tick = float(np.mean(rebuild_seconds))
    return {
        "n": n,
        "ticks": ticks,
        "slide": slide,
        "amortised_tick_seconds": amortised,
        "rebuild_per_tick_seconds": rebuild_per_tick,
        "speedup": rebuild_per_tick / amortised if amortised > 0 else float("inf"),
        "warm_build_seconds": warm_build_seconds,
        "multiplies": after["multiplies"] - before["multiplies"],
        "blocks_rebuilt": after["blocks_built"] - before["blocks_built"],
        "node_store_bytes": after["node_store"]["nbytes"],
        "answers_checksum": weighted_checksum(np.asarray(answers, dtype=np.int64)),
    }


def check_streaming_throughput(points: List[PointResult]) -> None:
    # (1) Every tick answer is checksum-identical across execution backends
    # (the per-tick DP-oracle identity is asserted inside the point itself);
    # (2) the slide path genuinely recombines rather than rebuilding; (3) the
    # amortised tick beats rebuild-per-tick by >= 10x at production sizes.
    by_case: Dict[Any, Dict[str, Any]] = {}
    for point in points:
        row = point.row()
        reference = by_case.setdefault(row["workload"], row)
        assert row["answers_checksum"] == reference["answers_checksum"], (
            f"backend {row['backend']} answers diverge from {reference['backend']} "
            f"on {row['workload']}: {row['answers_checksum']} != {reference['answers_checksum']}"
        )
        assert row["blocks_rebuilt"] >= 1, f"no leaf blocks rebuilt on {row['workload']}"
        if row["n"] >= 4096:
            assert row["speedup"] >= 10.0, (
                f"amortised sliding tick must be >= 10x faster than rebuild-per-tick "
                f"at n={row['n']}, got {row['speedup']:.1f}x on {row['workload']} "
                f"({row['backend']})"
            )


def timer_streaming_throughput() -> Callable[[], Any]:
    n, slide = 2048, 64
    stream = make_sequence("random", 4 * n, seed=7).astype(np.float64)
    session = StreamingLIS(window=n, strict=True, leaf_size=64)
    session.append(stream[:n])
    session.lis_length()
    state = {"offset": n}

    def tick():
        if state["offset"] + slide > len(stream):
            state["offset"] = n
        session.push(stream[state["offset"] : state["offset"] + slide])
        state["offset"] += slide
        return session.lis_length()

    return tick


register_spec(
    ExperimentSpec(
        name="streaming_throughput",
        title="Streaming sliding-window recomposition vs rebuild-per-tick",
        claim="monoid recomposition of Theorem 1.3 products (streaming workloads)",
        grid={
            "workload": ["random", "near_sorted"],
            "backend": ["serial", "thread", "process"],
        },
        fixed={
            "n": 4096,
            "ticks": 12,
            "slide": 64,
            "leaf_size": 64,
            "seed": 7,
            "probes": 4,
            "strict": True,
            "rebuild_sample": 2,
        },
        quick_grid={"workload": ["random"], "backend": ["serial", "thread", "process"]},
        quick_fixed={"n": 512, "ticks": 6, "slide": 32, "rebuild_sample": 1},
        point=run_streaming_throughput_point,
        columns=[
            "workload",
            "backend",
            "amortised_tick_seconds",
            "rebuild_per_tick_seconds",
            "speedup",
            "multiplies",
            "blocks_rebuilt",
            "answers_checksum",
        ],
        checks=check_streaming_throughput,
        timer=timer_streaming_throughput,
        bench_file="benchmarks/bench_streaming_throughput.py",
    )
)


register_spec(
    ExperimentSpec(
        name="service_throughput",
        title="Query-serving throughput: cached batches vs rebuild-per-query",
        claim="serving amortisation of Theorem 1.3 / Corollary 1.3.2 build products",
        grid={
            "workload": ["random", "near_sorted"],
            "batch": [64, 256],
            "backend": ["serial", "thread", "process"],
        },
        fixed={"n": 4096, "seed": 7, "delta": 0.5, "naive_sample": 1, "mode": "mpc"},
        quick_grid={
            "workload": ["random"],
            "batch": [32],
            "backend": ["serial", "thread", "process"],
        },
        quick_fixed={"n": 512},
        point=run_service_throughput_point,
        columns=[
            "workload",
            "batch",
            "backend",
            "cached_qps",
            "naive_qps",
            "speedup",
            "cache_hits",
            "cache_misses",
            "answers_checksum",
        ],
        checks=check_service_throughput,
        timer=timer_service_throughput,
        bench_file="benchmarks/bench_service_throughput.py",
    )
)


# ------------------------------------------------------------ service_latency
# E13 — The HTTP front-end under load: open/closed-loop latency and QPS with
# request coalescing, measured by the in-process load generator.


def _latency_documents(
    workload: str, n: int, seed: int, batch: int, variants: int = 4
) -> List[Dict[str, Any]]:
    """Per-variant batch documents: same index fingerprint, distinct windows.

    Every variant queries the *same* named target, so concurrent variants
    coalesce into shared passes; the windows differ per variant so the
    bit-identity assertion actually distinguishes them.
    """
    documents = []
    for variant in range(variants):
        rng = np.random.default_rng(seed + 1000 * variant)
        i = rng.integers(0, max(1, n - 1), size=batch)
        widths = rng.integers(1, max(2, n // 4), size=batch)
        j = np.minimum(i + widths, n)
        documents.append(
            {
                "schema": "repro.service.requests",
                "version": 2,
                "requests": [
                    {
                        "op": "substring_query",
                        "id": f"v{variant}",
                        "workload": workload,
                        "n": n,
                        "seed": seed,
                        "i": i.tolist(),
                        "j": j.tolist(),
                    }
                ],
            }
        )
    return documents


def run_service_latency_point(
    pattern: str,
    batch: int,
    n: int = 2048,
    seed: int = 7,
    workload: str = "random",
    total: int = 96,
    concurrency: int = 8,
    rate: float = 120.0,
    duration: float = 0.8,
    max_inflight: int = 64,
) -> Dict[str, Any]:
    """One load-generator measurement against an in-process HTTP server.

    Starts a server, warms the index with one POST, then drives ``pattern``
    traffic (closed loop: ``concurrency`` saturating workers; open loop:
    fixed-``rate`` arrivals).  Every successful answer is compared
    bit-for-bit against a serial :class:`QueryService` oracle evaluated
    outside the server — the codec and coalescing machinery must never
    change an answer.
    """
    from ..server import get_json, post_json, run_load, start_server

    documents = _latency_documents(workload, n, seed, batch)
    handle = start_server(QueryService(cache=IndexCache()), max_inflight=max_inflight)
    try:
        warm_status, _, warm_body = post_json(handle.url + "/v2/batch", documents[0])
        assert warm_status == 200 and warm_body["errors"] == 0, (
            f"warm-up POST failed: {warm_status} {warm_body}"
        )
        report = run_load(
            handle.url,
            documents,
            pattern=pattern,
            total=total,
            concurrency=concurrency,
            rate=rate,
            duration=duration,
        )
        _, _, stats = get_json(handle.url + "/stats")
    finally:
        handle.stop()

    # Serial oracle: the same requests through a fresh QueryService, no
    # HTTP, no coalescing, no concurrency.
    oracle = QueryService(cache=IndexCache())
    expected: Dict[int, List[Any]] = {}
    for variant, document in enumerate(documents):
        _, requests = parse_requests_document(document)
        outcome = oracle.submit(requests).outcomes[0]
        expected[variant] = [outcome.result]
    mismatches = 0
    for variant, observed_lists in report.answers.items():
        for observed in observed_lists:
            if observed != expected[variant]:
                mismatches += 1
    answers_checksum = weighted_checksum(
        np.asarray(
            [value for variant in sorted(expected) for value in expected[variant][0]],
            dtype=np.int64,
        )
    )
    coalescing = stats["coalescing"]
    return {
        "n": n,
        "requests": report.requests,
        "ok": report.ok,
        "rejected": report.rejected,
        "failed": report.failed,
        "mismatches": mismatches,
        "qps": report.qps,
        "p50_ms": report.p50_ms,
        "p95_ms": report.p95_ms,
        "p99_ms": report.p99_ms,
        "max_ms": report.max_ms,
        "hist_p50_ms": report.hist_p50_ms,
        "hist_p95_ms": report.hist_p95_ms,
        "hist_p99_ms": report.hist_p99_ms,
        "latency_hist": dict(report.latency_hist),
        "percentile_method": report.percentile_method,
        "passes": coalescing["passes"],
        "merged_passes": coalescing["merged_passes"],
        "coalesced_requests": coalescing["coalesced_requests"],
        "peak_inflight": stats["peak_inflight"],
        "answers_checksum": answers_checksum,
    }


def check_service_latency(points: List[PointResult]) -> None:
    # (1) No request lost or wrong: every issued request is answered (or
    # honestly rejected), and every answer matched the serial oracle; (2)
    # latency percentiles are non-degenerate and ordered; (3) the same
    # workload yields the same answers checksum across arrival patterns.
    by_batch: Dict[Any, Dict[str, Any]] = {}
    for point in points:
        row = point.row()
        case = f"{row['pattern']}/batch={row['batch']}"
        assert row["ok"] > 0, f"no successful requests on {case}"
        assert row["failed"] == 0, f"{row['failed']} failed requests on {case}"
        assert row["mismatches"] == 0, (
            f"{row['mismatches']} answers diverged from the serial oracle on {case}"
        )
        assert row["ok"] + row["rejected"] == row["requests"], (
            f"requests silently dropped on {case}: "
            f"{row['ok']} ok + {row['rejected']} rejected != {row['requests']} issued"
        )
        assert 0.0 < row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"] <= row["max_ms"], (
            f"degenerate latency percentiles on {case}: "
            f"p50={row['p50_ms']}, p95={row['p95_ms']}, p99={row['p99_ms']}"
        )
        assert row["qps"] > 0.0, f"zero sustained QPS on {case}"
        reference = by_batch.setdefault(row["batch"], row)
        assert row["answers_checksum"] == reference["answers_checksum"], (
            f"answers diverge across arrival patterns at batch={row['batch']}: "
            f"{row['answers_checksum']} != {reference['answers_checksum']}"
        )


def timer_service_latency() -> Callable[[], Any]:
    from ..server import post_json, start_server

    documents = _latency_documents("random", 1024, 7, 16)
    handle = start_server(QueryService(cache=IndexCache()))
    post_json(handle.url + "/v2/batch", documents[0])
    state = {"next": 0}

    def shot():
        variant = state["next"] % len(documents)
        state["next"] += 1
        return post_json(handle.url + "/v2/batch", documents[variant])

    return shot


register_spec(
    ExperimentSpec(
        name="service_latency",
        title="HTTP front-end latency under open/closed-loop load",
        claim="network serving of Theorem 1.3 build products at interactive latency",
        grid={"pattern": ["closed", "open"], "batch": [1, 8]},
        fixed={
            "n": 2048,
            "seed": 7,
            "workload": "random",
            "total": 96,
            "concurrency": 8,
            "rate": 120.0,
            "duration": 0.8,
            "max_inflight": 64,
        },
        quick_grid={"pattern": ["closed", "open"], "batch": [4]},
        quick_fixed={"n": 512, "total": 32, "rate": 80.0, "duration": 0.5},
        point=run_service_latency_point,
        columns=[
            "pattern",
            "batch",
            "ok",
            "rejected",
            "qps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "merged_passes",
            "answers_checksum",
        ],
        checks=check_service_latency,
        timer=timer_service_latency,
        bench_file="benchmarks/bench_service_latency.py",
    )
)


# ------------------------------------------------------------- shard_scaling
# E14 — The sharded serving tier: consistent-hash routing across N worker
# processes, answers bit-identical to the single-process service, throughput
# and latency measured from 1 to N shards.


def _shard_scaling_requests(n: int, seed: int, windows: int) -> List[QueryRequest]:
    """A mixed LIS/LCS batch spanning many distinct index fingerprints.

    Six sequence targets × {length, substring windows, rank interval} plus
    three string-pair targets × {length, substring windows} touch ~21
    distinct ``(target, kind, strict)`` index identities — enough that the
    (deterministic) hash ring spreads them over every shard of the 1→4
    grid.  Window geometry is seeded so the batch is reproducible from
    ``(n, seed, windows)`` alone.
    """
    rng = np.random.default_rng(seed + 4099)
    requests: List[QueryRequest] = []

    def windows_for(length: int):
        i = rng.integers(0, max(1, length - 1), size=windows)
        widths = rng.integers(1, max(2, length // 4), size=windows)
        return i, np.minimum(i + widths, length)

    sequence_targets = [
        TargetSpec(kind="sequence", workload=workload, n=n, seed=seed + offset)
        for workload in ("random", "near_sorted", "duplicate_heavy")
        for offset in (0, 17)
    ]
    for index, target in enumerate(sequence_targets):
        i, j = windows_for(n)
        requests.append(
            QueryRequest(op="lis_length", target=target, request_id=f"len{index}")
        )
        requests.append(
            QueryRequest(
                op="substring_query", target=target, request_id=f"win{index}", i=i, j=j
            )
        )
        requests.append(
            QueryRequest(
                op="rank_interval_query",
                target=target,
                request_id=f"rank{index}",
                x=0,
                y=n,
            )
        )

    pair_targets = [
        TargetSpec(kind="string_pair", workload="correlated_pair", n=max(32, n // 4), seed=seed + offset)
        for offset in (3, 23, 43)
    ]
    for index, target in enumerate(pair_targets):
        i, j = windows_for(max(32, n // 4))
        requests.append(
            QueryRequest(op="lcs_length", target=target, request_id=f"lcs{index}")
        )
        requests.append(
            QueryRequest(
                op="substring_query", target=target, request_id=f"lwin{index}", i=i, j=j
            )
        )
    return requests


def _outcome_values(outcomes) -> np.ndarray:
    """Flatten a batch's results into one order-sensitive integer vector."""
    parts = [np.asarray(outcome.result, dtype=np.int64).ravel() for outcome in outcomes]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def run_shard_scaling_point(
    shards: int,
    n: int = 768,
    seed: int = 7,
    windows: int = 8,
    rounds: int = 10,
    cache_bytes: int = 64 << 20,
) -> Dict[str, Any]:
    """One shard-count measurement of the sharded serving tier.

    A serial :class:`QueryService` oracle answers the mixed batch first;
    the :class:`~repro.service.sharding.ShardRouter` must then reproduce
    those answers **bit-identically** on every timed round (asserted here,
    per round, not just in the cross-point checks).  Warm-up is the
    router's ``prefetch`` — so the timed rounds measure routed cache-hit
    serving, not index builds.  Inside a daemonic runner worker the router
    falls back to in-process shards automatically; the point records which
    flavour actually ran (``workers`` / ``serial_fallback``) and, on
    single-core hosts, an honest note that process fan-out cannot speed
    anything up there.
    """
    from ..service.sharding import ShardRouter

    requests = _shard_scaling_requests(n, seed, windows)

    oracle = QueryService(cache=IndexCache())
    expected = oracle.submit(requests).outcomes
    expected_values = [np.asarray(outcome.result, dtype=np.int64) for outcome in expected]
    answers_checksum = weighted_checksum(_outcome_values(expected))

    router = ShardRouter(shards, cache_bytes=cache_bytes)
    try:
        prefetch_specs = sorted(
            {
                (
                    request.target,
                    request.index_kind(),
                    bool(request.strict) if request.index_kind() != "lcs" else True,
                )
                for request in requests
            },
            key=lambda item: item[1],
        )
        warmup = router.prefetch(prefetch_specs)

        latencies: List[float] = []
        mismatches = 0
        started = time.perf_counter()
        for _ in range(max(1, int(rounds))):
            round_started = time.perf_counter()
            batch = router.submit(requests)
            latencies.append((time.perf_counter() - round_started) * 1000.0)
            for outcome, reference in zip(batch.outcomes, expected_values):
                if not np.array_equal(
                    np.asarray(outcome.result, dtype=np.int64), reference
                ):
                    mismatches += 1
        elapsed = time.perf_counter() - started
        stats = router.stats()
    finally:
        router.close()

    assert mismatches == 0, (
        f"{mismatches} sharded answers diverged from the serial oracle "
        f"at shards={shards}"
    )
    lat = np.asarray(latencies, dtype=np.float64)
    cpu_count = os.cpu_count() or 1
    note = ""
    if cpu_count == 1 and stats["workers"] == "process":
        note = (
            "single-core host: worker processes interleave on one core, so "
            "sharding adds pipe/dispatch overhead without parallel speedup; "
            "QPS ratios here measure that overhead, not scaling"
        )
    elif stats["serial_fallback"]:
        note = f"in-process shards ({stats['serial_fallback']}): no parallelism measured"
    return {
        "requests": len(requests),
        "rounds": len(latencies),
        "workers": stats["workers"],
        "serial_fallback": stats["serial_fallback"] or "",
        "cpu_count": cpu_count,
        "prefetched": warmup["prefetched"],
        "qps": (len(requests) * len(latencies)) / elapsed if elapsed > 0 else 0.0,
        "p50_ms": percentile_linear(lat, 50),
        "p95_ms": percentile_linear(lat, 95),
        "p99_ms": percentile_linear(lat, 99),
        "max_ms": float(lat.max()),
        "percentile_method": PERCENTILE_METHOD,
        "mismatches": mismatches,
        "shards_exercised": stats["load"]["shards_exercised"],
        "per_shard_requests": stats["load"]["per_shard_requests"],
        "imbalance": stats["load"]["imbalance"],
        "cache_hit_rate": stats["cache"]["hit_rate"],
        "restarts": stats["restarts"],
        "answers_checksum": answers_checksum,
        "note": note,
    }


def check_shard_scaling(points: List[PointResult]) -> None:
    # (1) Answers are shard-invariant: one checksum across every shard
    # count (and zero per-round oracle mismatches); (2) routing genuinely
    # fans out: every shard served at least one request; (3) no worker
    # crashed; (4) single-core hosts carry an honest overhead note instead
    # of a fictitious speedup claim.
    reference: Optional[int] = None
    for point in points:
        row = point.row()
        case = f"shards={row['shards']}"
        assert row["mismatches"] == 0, (
            f"{row['mismatches']} answers diverged from the serial oracle on {case}"
        )
        if reference is None:
            reference = row["answers_checksum"]
        assert row["answers_checksum"] == reference, (
            f"answers checksum diverges across shard counts on {case}: "
            f"{row['answers_checksum']} != {reference}"
        )
        assert row["shards_exercised"] == row["shards"], (
            f"only {row['shards_exercised']}/{row['shards']} shards served "
            f"requests on {case} — the batch does not exercise the ring"
        )
        assert row["restarts"] == 0, (
            f"{row['restarts']} unexpected worker restarts on {case}"
        )
        assert 0.0 < row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"] <= row["max_ms"], (
            f"degenerate latency percentiles on {case}"
        )
        assert row["qps"] > 0.0, f"zero sustained QPS on {case}"
        if row["cpu_count"] == 1 and row["workers"] == "process":
            assert row["note"], (
                f"single-core host must record an honest overhead note on {case}"
            )


def timer_shard_scaling() -> Callable[[], Any]:
    from ..service.sharding import ShardRouter

    requests = _shard_scaling_requests(512, 7, 4)
    # Inline workers: the timer is sampled many times by the benchmark
    # harness and must not leak a process pool per sample.
    router = ShardRouter(2, force_serial=True)
    router.submit(requests)

    def shot():
        return router.submit(requests)

    return shot


register_spec(
    ExperimentSpec(
        name="shard_scaling",
        title="Sharded serving tier: 1→N worker scaling of mixed batches",
        claim="consistent-hash fan-out of Theorem 1.3 build products across worker processes without changing answers",
        grid={"shards": [1, 2, 4]},
        fixed={
            "n": 768,
            "seed": 7,
            "windows": 8,
            "rounds": 10,
            "cache_bytes": 64 << 20,
        },
        quick_grid={"shards": [1, 2]},
        quick_fixed={"n": 256, "windows": 4, "rounds": 3},
        point=run_shard_scaling_point,
        columns=[
            "shards",
            "workers",
            "requests",
            "qps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "shards_exercised",
            "imbalance",
            "restarts",
            "answers_checksum",
        ],
        checks=check_shard_scaling,
        timer=timer_shard_scaling,
        bench_file="benchmarks/bench_shard_scaling.py",
    )
)
