"""Tests for the pluggable execution engine (`repro.mpc.engine`).

The engine contract: backends change *wall-clock* behaviour only.  Results,
data placement and every quantity the accounting layer records (rounds, words,
per-machine loads) must be bit-identical across serial, thread and process
execution — these tests enforce that for the raw primitives, for the
fork/join parallel-composition semantics and for every registered experiment
spec.
"""

import pickle

import numpy as np
import pytest

from repro.experiments import get_spec, run_experiment, spec_names
from repro.mpc import (
    ClusterStats,
    MPCCluster,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    backend_names,
    resolve_backend,
)
from repro.mpc.engine import ExecutionBackend

BACKENDS = ["serial", "thread", "process"]


def make_backend(name):
    """Backend instances tuned so the parallel machinery genuinely engages
    (no inline fallbacks from worker/threshold heuristics) even on 1 CPU."""
    return {
        "serial": lambda: SerialBackend(),
        "thread": lambda: ThreadBackend(max_workers=2, min_parallel_items=0),
        "process": lambda: ProcessBackend(max_workers=2),
    }[name]()


# ------------------------------------------------------------- resolution
def test_backend_names_and_resolution():
    assert backend_names() == ["process", "serial", "thread"]
    assert isinstance(resolve_backend(None), SerialBackend)
    assert isinstance(resolve_backend("serial"), SerialBackend)
    assert isinstance(resolve_backend("thread"), ThreadBackend)
    assert isinstance(resolve_backend("process"), ProcessBackend)
    instance = ThreadBackend(max_workers=3)
    assert resolve_backend(instance) is instance
    with pytest.raises(ValueError, match="unknown execution backend"):
        resolve_backend("gpu")
    with pytest.raises(TypeError):
        resolve_backend(42)


def test_cluster_accepts_backend_in_all_forms():
    assert MPCCluster(64, backend=None).backend.name == "serial"
    assert MPCCluster(64, backend="thread").backend.name == "thread"
    assert MPCCluster(64, backend=ProcessBackend(max_workers=2)).backend.name == "process"


def test_pickled_cluster_downgrades_to_serial_backend():
    cluster = MPCCluster(256, delta=0.5, backend="process")
    cluster.charge_round("x", words=10, max_load=5)
    clone = pickle.loads(pickle.dumps(cluster))
    assert isinstance(clone.backend, SerialBackend)
    # Accounting state travels unchanged.
    assert clone.stats.fingerprint() == cluster.stats.fingerprint()


# ------------------------------------------------- primitive bit-identity
def _run_all_primitives(cluster, data, key, dest, perm, queries):
    darr = cluster.distribute(data)
    return {
        "sort": cluster.sort(darr, key=key).to_array(),
        # Per-chunk placement (not just the concatenation) must match.
        "route": [chunk.copy() for chunk in cluster.route(darr, dest).chunks],
        "prefix_ex": cluster.prefix_sum(darr, exclusive=True).to_array(),
        "prefix_in": cluster.prefix_sum(darr, exclusive=False).to_array(),
        "inverse": cluster.inverse_permutation(cluster.distribute(perm)).to_array(),
        "rank": cluster.rank_search(darr, cluster.distribute(queries)).to_array(),
        "map": darr.map_chunks(lambda chunk, idx: chunk + idx).to_array(),
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_primitives_identical_across_backends(backend, rng):
    serial = MPCCluster(400, delta=0.5, num_machines=8, space_per_machine=128)
    other = MPCCluster(
        400, delta=0.5, num_machines=8, space_per_machine=128, backend=make_backend(backend)
    )
    data = rng.integers(0, 50, size=400)  # duplicates exercise stable ties
    key = rng.permutation(400)
    dest = rng.integers(0, 8, size=400)
    perm = rng.permutation(400)
    queries = rng.integers(0, 50, size=80)

    expected = _run_all_primitives(serial, data, key, dest, perm, queries)
    actual = _run_all_primitives(other, data, key, dest, perm, queries)
    for name in expected:
        if name == "route":
            assert len(expected[name]) == len(actual[name])
            for chunk_s, chunk_o in zip(expected[name], actual[name]):
                np.testing.assert_array_equal(chunk_s, chunk_o)
        else:
            np.testing.assert_array_equal(expected[name], actual[name], err_msg=name)
    assert serial.stats.fingerprint() == other.stats.fingerprint()


def test_sort_and_prefix_match_numpy(rng):
    # Chunk-resident implementations agree with the flat NumPy reference.
    cluster = MPCCluster(300, delta=0.5, backend="thread")
    data = rng.integers(0, 20, size=300)
    key = rng.integers(0, 20, size=300)
    np.testing.assert_array_equal(
        cluster.sort(cluster.distribute(data), key=key).to_array(),
        data[np.argsort(key, kind="stable")],
    )
    np.testing.assert_array_equal(
        cluster.prefix_sum(cluster.distribute(data)).to_array(),
        np.cumsum(data) - data,
    )


# --------------------------------------------- fork/join parallel batches
def _charge_task(cluster, rounds, words):
    """Module-level fork-group task (picklable for the process backend)."""
    cluster.charge_rounds(rounds, "work", words_per_round=words, max_load=5)
    cluster.stats.local_operations += rounds
    return rounds


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_forked_parallel_composition(backend):
    """`absorb_parallel` semantics: max over rounds, sum of words — under
    every backend, with results in task order."""
    cluster = MPCCluster(1000, delta=0.5, backend=make_backend(backend))
    results = cluster.run_forked(
        [
            (_charge_task, (5, 10)),
            (_charge_task, (2, 30)),
            (_charge_task, (4, 7)),
        ],
        label="parallel",
    )
    assert results == [5, 2, 4]
    # Parallel composition: rounds = max(5, 2, 4); words add up per round.
    assert cluster.stats.num_rounds == 5
    assert cluster.stats.total_communication == 5 * 10 + 2 * 30 + 4 * 7
    assert cluster.stats.peak_machine_load == 5
    assert cluster.stats.local_operations == 5 + 2 + 4


def test_run_forked_identical_stats_across_backends():
    fingerprints = {}
    for backend in BACKENDS:
        cluster = MPCCluster(1000, delta=0.5, backend=make_backend(backend))
        cluster.run_forked([(_charge_task, (r, 10 * r)) for r in (3, 1, 6, 2)])
        fingerprints[backend] = cluster.stats.fingerprint()
    assert fingerprints["serial"] == fingerprints["thread"] == fingerprints["process"]


def test_run_forked_empty_and_single():
    cluster = MPCCluster(100, delta=0.5, backend="thread")
    assert cluster.run_forked([]) == []
    assert cluster.run_forked([(_charge_task, (1, 4))]) == [1]
    assert cluster.stats.num_rounds == 1


def test_process_backend_falls_back_on_unpicklable_tasks():
    cluster = MPCCluster(1000, delta=0.5, backend=ProcessBackend(max_workers=2))
    captured = []

    def closure_task(child, value):  # closures cannot be pickled
        child.charge_round("c", words=value, max_load=1)
        captured.append(value)
        return value * 2

    results = cluster.run_forked([(closure_task, (3,)), (closure_task, (4,))])
    assert results == [6, 8]
    assert sorted(captured) == [3, 4]  # ran in-process
    assert cluster.stats.total_communication == 7


def test_route_validates_payload_length(rng):
    cluster = MPCCluster(100, delta=0.5, backend="thread")
    darr = cluster.distribute(np.arange(100))
    dest = rng.integers(0, cluster.num_machines, size=100)
    routed = cluster.route(darr, dest, payload=np.arange(100) * 2)
    np.testing.assert_array_equal(np.sort(routed.to_array()), np.arange(100) * 2)
    with pytest.raises(ValueError, match="payload must match"):
        cluster.route(darr, dest, payload=np.arange(50))


def test_process_backend_inside_worker_runs_inline():
    """--backend process composed with the runner's --workers fan-out (or a
    worker-side MongeMPCConfig.backend re-resolve) must not try to spawn a
    nested pool inside a daemonic worker process."""
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(processes=1) as pool:
        rounds, words = pool.apply(_forked_charge_in_worker)
    assert rounds == 4  # max(4, 2): parallel composition held inline
    assert words == 4 * 10 + 2 * 10


def _forked_charge_in_worker():
    cluster = MPCCluster(1000, delta=0.5, backend=ProcessBackend(max_workers=2))
    cluster.run_forked([(_charge_task, (4, 10)), (_charge_task, (2, 10))])
    return cluster.stats.num_rounds, cluster.stats.total_communication


def test_config_backend_reapplied_in_worker_is_safe():
    """Theorem 1.3 pipeline with MongeMPCConfig(backend='process'): the merge
    tasks call mpc_multiply at depth 0 inside pool workers, re-resolving the
    process backend there — which must run inline, not crash."""
    from repro.lis import mpc_lis_length, lis_length
    from repro.mpc_monge import MongeMPCConfig
    from repro.workloads import make_sequence

    seq = make_sequence("random", 512, seed=5)
    cluster = MPCCluster(512, delta=0.5, backend=ProcessBackend(max_workers=2))
    config = MongeMPCConfig(backend="process")
    assert mpc_lis_length(cluster, seq, config) == lis_length(seq)


def test_absorb_parallel_direct_semantics():
    parent = ClusterStats(num_machines=8, space_per_machine=64)
    a = ClusterStats(num_machines=4, space_per_machine=64)
    b = ClusterStats(num_machines=4, space_per_machine=64)
    a.record_round("a", 10, 3)
    a.record_round("a", 10, 3)
    b.record_round("b", 100, 7)
    parent.absorb_parallel([a, b], label="p")
    assert parent.num_rounds == 2  # max over children
    assert parent.total_communication == 120  # sum across children
    assert parent.peak_machine_load == 7  # max across children


# ------------------------------------------- spec-level backend identity
def _strip_timing(metrics):
    return {k: v for k, v in metrics.items() if "seconds" not in k}


#: Reduced grids so the 3-backend comparison stays fast; every registered
#: spec must appear here or in the exclusion list below.
SPEC_CASES = {
    "table1": {"delta": [0.5], "algorithm": ["this_paper", "chs23"]},
    "multiply_rounds": {"n": [1024]},
    "scalability_delta": {"delta": [0.5]},
    "lis_rounds": {"n": [512]},
    "lcs": {"workload": ["random4"]},
    "communication": {"n": [1024]},
    "fanin_ablation": {"fanin": [4], "workload": ["zipfian"]},
    "space_overhead": {"grid_size": [16]},
}
#: Specs where a backend comparison is meaningless, with the reason.
SPEC_EXCLUSIONS = {
    "sequential": "no cluster: the sequential substrate has nothing to schedule",
    "backend_wallclock": "sweeps the backend itself; its own checks assert identity",
    "service_throughput": "sweeps the backend itself; its own checks assert identity "
    "(and tests/test_service.py covers the per-backend answers)",
    "streaming_throughput": "sweeps the backend itself; its own checks assert identity "
    "(and tests/test_streaming.py covers the per-backend answers)",
    "shard_scaling": "no cluster backend knob: sweeps the shard count, whose answers "
    "are oracle-checked inside the point (and tests/test_sharding.py covers "
    "shard-count identity)",
}


def test_every_registered_spec_is_covered_or_excluded():
    assert set(spec_names()) == set(SPEC_CASES) | set(SPEC_EXCLUSIONS)


@pytest.mark.parametrize("name", sorted(SPEC_CASES))
def test_spec_backends_bit_identical(name):
    """Acceptance criterion: for every registered experiment spec, the
    parallel backends produce bit-identical results and identical
    ClusterStats-derived metrics to the serial backend."""
    outcomes = {}
    for backend in BACKENDS:
        result = run_experiment(
            get_spec(name),
            quick=True,
            overrides=SPEC_CASES[name],
            fixed_overrides={"backend": backend},
        )
        outcomes[backend] = [
            (point.params, _strip_timing(point.metrics)) for point in result.points
        ]
    assert outcomes["serial"] == outcomes["thread"], f"{name}: thread backend diverges"
    assert outcomes["serial"] == outcomes["process"], f"{name}: process backend diverges"
