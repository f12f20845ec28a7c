"""Tests for the MPC simulator (cluster, accounting, primitives)."""

import numpy as np
import pytest

from repro.mpc import (
    ClusterStats,
    MPCCluster,
    MachineCountError,
    ScalabilityError,
    SpaceExceededError,
    inverse_permutation,
    mpc_sort,
    offline_rank_search,
    prefix_sum,
)
from repro.mpc.cluster import RANK_SEARCH_ROUNDS, SORT_ROUNDS


class TestClusterSetup:
    def test_default_sizes(self):
        cl = MPCCluster(10_000, delta=0.5)
        assert cl.num_machines == 100
        assert cl.space_per_machine >= 100  # n^{1-delta} = 100, plus slack
        assert cl.total_space >= 10_000

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            MPCCluster(100, delta=0.0)
        with pytest.raises(ValueError):
            MPCCluster(100, delta=1.0)
        with pytest.raises(ValueError):
            MPCCluster(0, delta=0.5)

    def test_explicit_overrides(self):
        cl = MPCCluster(100, delta=0.5, num_machines=7, space_per_machine=40)
        assert cl.num_machines == 7
        assert cl.space_per_machine == 40

    def test_space_violation_raises(self):
        cl = MPCCluster(100, delta=0.5, num_machines=2, space_per_machine=16)
        with pytest.raises(SpaceExceededError):
            cl.distribute(np.arange(100))

    def test_non_strict_mode_records_peak(self):
        cl = MPCCluster(100, delta=0.5, num_machines=2, space_per_machine=16, strict_space=False)
        cl.distribute(np.arange(100))
        assert cl.stats.peak_machine_load >= 50

    def test_charge_round_accounting(self):
        cl = MPCCluster(1000, delta=0.5)
        cl.charge_round("test", words=500, max_load=10)
        cl.charge_rounds(3, "more", words_per_round=100, max_load=5)
        assert cl.stats.num_rounds == 4
        assert cl.stats.total_communication == 800
        assert cl.stats.rounds[0].label == "test"


class TestDistributedArray:
    def test_distribute_roundtrip(self):
        cl = MPCCluster(256, delta=0.5)
        data = np.arange(256)
        darr = cl.distribute(data)
        assert darr.total_size == 256
        assert darr.num_chunks == cl.num_machines
        assert np.array_equal(darr.to_array(), data)

    def test_map_chunks(self):
        cl = MPCCluster(64, delta=0.5)
        darr = cl.distribute(np.arange(64))
        doubled = darr.map_chunks(lambda chunk, idx: chunk * 2)
        assert np.array_equal(doubled.to_array(), np.arange(64) * 2)

    def test_too_many_chunks(self):
        cl = MPCCluster(64, delta=0.5, num_machines=2, space_per_machine=64)
        with pytest.raises(MachineCountError):
            cl.distributed_from_chunks([np.arange(2)] * 5)


class TestPrimitives:
    def test_sort(self, rng):
        cl = MPCCluster(500, delta=0.5)
        data = rng.integers(0, 1000, size=500)
        result = mpc_sort(cl, data)
        assert np.array_equal(result.to_array(), np.sort(data))
        assert cl.stats.num_rounds == SORT_ROUNDS

    def test_sort_with_key(self, rng):
        cl = MPCCluster(100, delta=0.5)
        data = np.arange(100)
        key = rng.permutation(100)
        result = mpc_sort(cl, data, key=key)
        assert np.array_equal(result.to_array(), np.argsort(key, kind="stable"))

    def test_prefix_sum(self, rng):
        cl = MPCCluster(300, delta=0.5)
        data = rng.integers(0, 10, size=300)
        exclusive = prefix_sum(cl, data, exclusive=True)
        assert np.array_equal(exclusive.to_array(), np.cumsum(data) - data)
        inclusive = prefix_sum(cl, data, exclusive=False)
        assert np.array_equal(inclusive.to_array(), np.cumsum(data))

    def test_inverse_permutation(self, rng):
        cl = MPCCluster(200, delta=0.5)
        perm = rng.permutation(200)
        inv = inverse_permutation(cl, perm).to_array()
        assert np.array_equal(perm[inv], np.arange(200))
        assert cl.stats.num_rounds == 1

    def test_rank_search(self, rng):
        cl = MPCCluster(400, delta=0.5)
        data = rng.integers(0, 100, size=300)
        queries = rng.integers(0, 100, size=100)
        ranks = offline_rank_search(cl, data, queries).to_array()
        expected = np.array([(data < q).sum() for q in queries])
        assert np.array_equal(ranks, expected)
        assert cl.stats.num_rounds >= RANK_SEARCH_ROUNDS - 1

    def test_broadcast_space_limit(self):
        cl = MPCCluster(100, delta=0.5, num_machines=4, space_per_machine=16)
        with pytest.raises(SpaceExceededError):
            cl.broadcast(np.arange(64))

    def test_route(self, rng):
        cl = MPCCluster(120, delta=0.5)
        darr = cl.distribute(np.arange(120))
        dest = rng.integers(0, cl.num_machines, size=120)
        routed = cl.route(darr, dest)
        assert routed.total_size == 120
        # every element lands on its destination machine
        for machine, chunk in enumerate(routed.chunks):
            assert all(dest[v] == machine for v in chunk)


class TestForkJoin:
    def test_parallel_round_semantics(self):
        cl = MPCCluster(1000, delta=0.5)
        children = cl.fork(4)
        assert len(children) == 4
        assert sum(c.num_machines for c in children) >= cl.num_machines
        children[0].charge_rounds(5, "a", words_per_round=10)
        children[1].charge_rounds(2, "b", words_per_round=10)
        cl.join(children)
        # Parallel composition: the parent pays the maximum of the children.
        assert cl.stats.num_rounds == 5
        assert cl.stats.total_communication == 5 * 10 + 2 * 10

    def test_stats_summary_keys(self):
        cl = MPCCluster(100, delta=0.5)
        cl.charge_round("x", words=10)
        summary = cl.stats.summary()
        for key in ("machines", "rounds", "total_communication", "peak_machine_load"):
            assert key in summary
        assert cl.stats.rounds_by_phase()


# ------------------------------------------------ primitives against NumPy
def test_primitives_match_numpy(rng):
    cluster = MPCCluster(400, delta=0.5, num_machines=8, space_per_machine=128)
    data = rng.integers(0, 50, size=400)  # duplicates exercise stable ties
    key = rng.permutation(400)
    dest = rng.integers(0, 8, size=400)
    perm = rng.permutation(400)
    queries = rng.integers(0, 50, size=80)
    darr = cluster.distribute(data)

    np.testing.assert_array_equal(
        cluster.sort(darr, key=key).to_array(), data[np.argsort(key, kind="stable")]
    )
    # Per-chunk placement: machine p receives its elements in source order.
    routed = cluster.route(darr, dest)
    for machine, chunk in enumerate(routed.chunks):
        np.testing.assert_array_equal(chunk, data[dest == machine])
    np.testing.assert_array_equal(
        cluster.prefix_sum(darr, exclusive=True).to_array(), np.cumsum(data) - data
    )
    np.testing.assert_array_equal(
        cluster.prefix_sum(darr, exclusive=False).to_array(), np.cumsum(data)
    )
    np.testing.assert_array_equal(
        cluster.inverse_permutation(cluster.distribute(perm)).to_array(), np.argsort(perm)
    )
    np.testing.assert_array_equal(
        cluster.rank_search(darr, cluster.distribute(queries)).to_array(),
        np.searchsorted(np.sort(data), queries, side="left"),
    )
    sizes = darr.chunk_sizes
    np.testing.assert_array_equal(
        darr.map_chunks(lambda chunk, idx: chunk + idx).to_array(),
        data + np.repeat(np.arange(len(sizes)), sizes),
    )


def test_sort_and_prefix_match_numpy(rng):
    # Chunk-resident implementations agree with the flat NumPy reference.
    cluster = MPCCluster(300, delta=0.5)
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


def test_route_validates_payload_length(rng):
    cluster = MPCCluster(100, delta=0.5)
    darr = cluster.distribute(np.arange(100))
    dest = rng.integers(0, cluster.num_machines, size=100)
    routed = cluster.route(darr, dest, payload=np.arange(100) * 2)
    np.testing.assert_array_equal(np.sort(routed.to_array()), np.arange(100) * 2)
    with pytest.raises(ValueError, match="payload must match"):
        cluster.route(darr, dest, payload=np.arange(50))


# --------------------------------------------- fork/join parallel batches
def _charge_task(cluster, rounds, words):
    cluster.charge_rounds(rounds, "work", words_per_round=words, max_load=5)
    cluster.stats.local_operations += rounds
    return rounds


def test_run_forked_parallel_composition():
    """`absorb_parallel` semantics: max over rounds, sum of words, with
    results in task order."""
    cluster = MPCCluster(1000, delta=0.5)
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


def test_run_forked_empty_and_single():
    cluster = MPCCluster(100, delta=0.5)
    assert cluster.run_forked([]) == []
    assert cluster.run_forked([(_charge_task, (1, 4))]) == [1]
    assert cluster.stats.num_rounds == 1


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
