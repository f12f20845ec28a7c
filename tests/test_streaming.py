"""Tests for the streaming sliding-window subsystem (:mod:`repro.streaming`)."""

import numpy as np
import pytest

from repro.experiments import load_artifact, run_experiment
from repro.experiments.cli import main as cli_main
from repro.lcs.dp_baseline import lcs_length_dp
from repro.lis import lis_length, rank_transform, value_interval_matrix
from repro.lis.semilocal import DENSE_BLOCK_SIZE
from repro.streaming import (
    SeaweedAggregator,
    StreamingLCS,
    StreamingLIS,
    block_product_from_semilocal,
    build_block_product,
    combine_block_products,
    cover_scores,
    extend_value_matrix,
)
from repro.streaming.aggregator import NodeStore, empty_block_product
from repro.workloads import make_sequence, make_string_pair


def _oracle_rank_scores(window, x, y, strict):
    """Patience-sort DP oracle for value-interval scores."""
    ranks = rank_transform(np.asarray(window), strict=strict)
    return np.asarray(
        [lis_length(ranks[(ranks >= xi) & (ranks < yi)].tolist()) for xi, yi in zip(x, y)],
        dtype=np.int64,
    )


# ------------------------------------------------------------- block products
class TestBlockProducts:
    def test_build_matches_value_interval_matrix(self):
        rng = np.random.default_rng(0)
        for strict in (True, False):
            values = rng.integers(0, 10, size=40).astype(float)
            arrivals = np.arange(40, dtype=np.int64)
            ties = -arrivals if strict else arrivals
            block = build_block_product(values, ties)
            oracle = value_interval_matrix(values, strict=strict)
            assert block.matrix == oracle.matrix
            assert block.size == 40

    def test_combine_is_the_associative_product(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 50, size=120).astype(float)
        arrivals = np.arange(120, dtype=np.int64)
        left = build_block_product(values[:70], -arrivals[:70])
        right = build_block_product(values[70:], -arrivals[70:])
        merged = combine_block_products(left, right)
        assert merged.matrix == value_interval_matrix(values).matrix

    def test_combine_with_identity_is_a_noop(self):
        block = build_block_product(np.asarray([3.0, 1.0, 2.0]), -np.arange(3))
        assert combine_block_products(empty_block_product(), block) is block
        assert combine_block_products(block, empty_block_product()) is block

    def test_cover_scores_equal_root_scores(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 30, size=90).astype(float)
        arrivals = np.arange(90, dtype=np.int64)
        parts = [
            build_block_product(values[lo:hi], -arrivals[lo:hi])
            for lo, hi in ((0, 25), (25, 40), (40, 90))
        ]
        oracle = value_interval_matrix(values)
        for x in (0, 7, 41):
            y = np.arange(x, 91)
            assert np.array_equal(cover_scores(parts, x, y), oracle.score(np.full(len(y), x), y))


# ----------------------------------------------------------------- aggregator
class TestSeaweedAggregator:
    @pytest.mark.parametrize("strict", [True, False])
    def test_random_tick_sequences_match_oracles(self, strict):
        rng = np.random.default_rng(3 if strict else 4)
        agg = SeaweedAggregator(strict=strict, leaf_size=8)
        window = []
        for _ in range(45):
            op = rng.integers(0, 4)
            if op <= 1 or not window:
                count = int(rng.integers(1, 10))
                vals = rng.integers(0, 15, size=count).astype(float)
                agg.append(vals)
                window.extend(vals.tolist())
            elif op == 2:
                count = int(rng.integers(1, len(window) + 1))
                assert agg.evict(count) == count
                window = window[count:]
            else:
                pos = int(rng.integers(0, len(window)))
                value = float(rng.integers(0, 15))
                agg.update(pos, value)
                window[pos] = value
            assert np.array_equal(agg.window_values(), np.asarray(window))
            assert agg.lis_length() == lis_length(window, strict=strict)
            if window:
                m = len(window)
                x = rng.integers(0, m + 1, size=4)
                y = np.minimum(m, x + rng.integers(0, m + 1, size=4))
                assert np.array_equal(
                    agg.rank_scores(x, y), _oracle_rank_scores(window, x, y, strict)
                )

    @pytest.mark.parametrize("strict", [True, False])
    def test_root_product_is_bit_identical_to_rebuild(self, strict):
        rng = np.random.default_rng(5)
        agg = SeaweedAggregator(strict=strict, leaf_size=16)
        stream = rng.integers(0, 40, size=400).astype(float)
        agg.append(stream[:160])
        for tick in range(12):
            agg.append(stream[160 + tick * 20 : 180 + tick * 20])
            agg.evict(20)
            oracle = value_interval_matrix(agg.window_values(), strict=strict)
            assert agg.to_semilocal().matrix == oracle.matrix

    def test_multi_leaf_append_counts_leaf_multiplies(self):
        rng = np.random.default_rng(60)
        # leaf_size above the comb's leaf size so leaf builds themselves
        # perform (and count) multiplications.
        leaf_size = DENSE_BLOCK_SIZE + DENSE_BLOCK_SIZE // 2
        stream = rng.integers(0, 5000, size=2 * leaf_size).astype(float)
        agg = SeaweedAggregator(leaf_size=leaf_size)
        agg.append(stream)
        assert agg.stats.blocks_built == 2
        assert agg.stats.multiplies > 0, "leaf builds must have counted multiplies"
        leaf_multiplies = agg.stats.multiplies
        assert agg.to_semilocal().matrix == value_interval_matrix(stream).matrix
        assert agg.stats.multiplies > leaf_multiplies  # the root fold counts too

    def test_substring_scores_match_patience(self):
        rng = np.random.default_rng(7)
        agg = SeaweedAggregator(leaf_size=8)
        stream = rng.integers(0, 25, size=150).astype(float)
        agg.append(stream[:100])
        agg.append(stream[100:])
        agg.evict(30)
        window = agg.window_values()
        i = rng.integers(0, len(window), size=6)
        j = np.minimum(len(window), i + rng.integers(0, len(window), size=6))
        got = agg.substring_scores(i, j)
        want = [lis_length(window[lo:hi].tolist()) for lo, hi in zip(i, j)]
        assert np.array_equal(got, np.asarray(want))

    def test_window_sweep_matches_rebuilt_matrix(self):
        rng = np.random.default_rng(8)
        agg = SeaweedAggregator(leaf_size=16)
        agg.append(rng.integers(0, 99, size=120).astype(float))
        agg.evict(13)
        oracle = value_interval_matrix(agg.window_values())
        starts = np.arange(0, len(agg) - 24 + 1, 6)
        assert np.array_equal(agg.window_sweep(24, 6), oracle.score(starts, starts + 24))

    def test_update_recombines_only_the_root_path(self):
        agg = SeaweedAggregator(leaf_size=8)
        agg.append(np.arange(64, dtype=float))
        agg.lis_length()  # populate the node path
        before = agg.stats.multiplies
        agg.update(20, -3.0)
        assert agg.lis_length() == 63
        path_multiplies = agg.stats.multiplies - before
        assert 0 < path_multiplies <= 8, "update must recombine at most the root path"

    def test_empty_and_degenerate_windows(self):
        agg = SeaweedAggregator()
        assert agg.lis_length() == 0 and len(agg) == 0
        assert agg.evict(5) == 0
        agg.append([])
        agg.append([4.0])
        assert agg.lis_length() == 1
        with pytest.raises(IndexError):
            agg.update(1, 0.0)
        with pytest.raises(ValueError):
            agg.evict(-1)

    def test_node_store_accounting(self):
        store = NodeStore()
        block = build_block_product(np.asarray([2.0, 1.0, 3.0]), -np.arange(3))
        store.put((0, 4), block)
        assert (0, 4) in store and len(store) == 1
        assert store.nbytes == block.nbytes
        dense_before = block.nbytes
        block.dense_distribution()
        assert block.nbytes > dense_before, "dense tables must be accounted"
        assert store.nbytes == block.nbytes
        assert store.prune_before(5) == 1
        assert len(store) == 0
        counters = store.counters()
        assert counters["inserts"] == 1 and counters["prunes"] == 1

    def test_counters_shape(self):
        agg = SeaweedAggregator(leaf_size=8)
        agg.append(np.arange(20, dtype=float))
        agg.lis_length()
        doc = agg.counters()
        for key in ("multiplies", "blocks_built", "window", "leaves", "node_store", "nbytes"):
            assert key in doc
        assert doc["window"] == 20


# ------------------------------------------------------------------- sessions
class TestStreamingLIS:
    def test_push_maintains_the_window_cap(self):
        session = StreamingLIS(window=50, leaf_size=8)
        rng = np.random.default_rng(9)
        stream = rng.integers(0, 30, size=200).astype(float)
        session.push(stream[:50])
        for tick in range(10):
            dropped = session.push(stream[50 + tick * 15 : 65 + tick * 15])
            assert dropped == 15 and len(session) == 50
            lo = 65 + tick * 15 - 50
            assert np.array_equal(session.window_values(), stream[lo : lo + 50])
            assert session.lis_length() == lis_length(session.window_values())

    def test_non_strict_session(self):
        session = StreamingLIS(window=40, strict=False, leaf_size=8)
        rng = np.random.default_rng(10)
        stream = rng.integers(0, 5, size=120).astype(float)  # duplicate-heavy
        session.push(stream[:40])
        for tick in range(8):
            session.push(stream[40 + tick * 10 : 50 + tick * 10])
            assert session.lis_length() == lis_length(session.window_values(), strict=False)

    def test_rank_probes_and_substring_probes(self):
        session = StreamingLIS(window=64, leaf_size=8)
        rng = np.random.default_rng(11)
        session.push(rng.integers(0, 100, size=64).astype(float))
        window = session.window_values()
        assert session.rank_interval(0, 64) == session.lis_length()
        assert session.substring_lis(10, 40) == lis_length(window[10:40].tolist())

    def test_invalid_queries_raise(self):
        session = StreamingLIS(window=16)
        session.push(np.arange(16, dtype=float))
        with pytest.raises(ValueError):
            session.rank_intervals([-1], [4])
        with pytest.raises(ValueError):
            session.substring_scores([0], [17])
        with pytest.raises(ValueError):
            session.window_sweep(0)
        with pytest.raises(ValueError):
            StreamingLIS(window=0)


class TestStreamingLCS:
    def test_sliding_lcs_matches_dp(self):
        rng = np.random.default_rng(12)
        reference = rng.integers(0, 6, size=36)
        session = StreamingLCS(reference, window=28, leaf_size=8)
        stream = rng.integers(0, 6, size=100)
        session.push(stream[:28])
        for tick in range(12):
            session.push(stream[28 + tick * 6 : 34 + tick * 6])
            assert session.t_length == 28
            t_window = session.t_window()
            assert session.lcs_length() == lcs_length_dp(reference, t_window)

    def test_subwindow_queries_and_sweep(self):
        rng = np.random.default_rng(13)
        reference = rng.integers(0, 5, size=24)
        session = StreamingLCS(reference, leaf_size=8)
        stream = rng.integers(0, 5, size=40)
        session.append(stream)
        t_window = session.t_window()
        assert session.query(5, 25) == lcs_length_dp(reference, t_window[5:25])
        sweep = session.window_sweep(12, 7)
        want = [
            lcs_length_dp(reference, t_window[lo : lo + 12])
            for lo in range(0, len(t_window) - 12 + 1, 7)
        ]
        assert np.array_equal(sweep, np.asarray(want))

    def test_symbols_without_matches(self):
        session = StreamingLCS(np.asarray([1, 2, 3]), window=8)
        session.push(np.asarray([9, 9, 9, 9]))
        assert session.lcs_length() == 0
        session.push(np.asarray([2, 9, 3]))
        assert session.lcs_length() == 2
        assert session.evict(20) == 7
        assert session.lcs_length() == 0
        with pytest.raises(ValueError):
            session.query(0, 5)


# ------------------------------------------------------------------ recompose
class TestRecompose:
    @pytest.mark.parametrize("strict", [True, False])
    def test_extend_is_bit_identical_to_rebuild(self, strict):
        rng = np.random.default_rng(14)
        old = rng.integers(0, 40, size=130).astype(float)
        suffix = rng.integers(0, 40, size=37).astype(float)
        base = value_interval_matrix(old, strict=strict)
        patched = extend_value_matrix(base, old, suffix, strict=strict)
        full = value_interval_matrix(np.concatenate([old, suffix]), strict=strict)
        assert patched.matrix == full.matrix
        assert patched.length == full.length
        assert patched.lis_length() == full.lis_length()

    def test_empty_suffix_returns_the_original(self):
        old = np.asarray([3.0, 1.0, 2.0])
        base = value_interval_matrix(old)
        assert extend_value_matrix(base, old, np.empty(0)) is base

    def test_block_product_from_semilocal_validates(self):
        old = np.asarray([3.0, 1.0, 2.0])
        base = value_interval_matrix(old)
        with pytest.raises(ValueError, match="does not match"):
            block_product_from_semilocal(base, old[:2])
        from repro.lis import subsegment_matrix

        with pytest.raises(ValueError, match="value-interval"):
            block_product_from_semilocal(subsegment_matrix(old), old)


# ------------------------------------------------------------------- the spec
class TestStreamingThroughputSpec:
    def test_quick_grid_passes_checks(self):
        result = run_experiment("streaming_throughput", quick=True)
        assert result.checks_passed is True
        assert [point.params for point in result.points] == [{"workload": "random"}]

    def test_point_asserts_oracle_identity(self):
        from repro.experiments.specs import run_streaming_throughput_point

        metrics = run_streaming_throughput_point(
            "random", n=256, ticks=4, slide=16, leaf_size=16, rebuild_sample=1
        )
        assert metrics["blocks_rebuilt"] >= 4
        assert metrics["speedup"] > 0


# ------------------------------------------------------------------ the CLI
class TestStreamCLI:
    def test_lis_artifact_round_trip(self, tmp_path, capsys):
        artifact = tmp_path / "stream.json"
        code = cli_main(
            [
                "stream",
                "--window", "128",
                "--ticks", "3",
                "--slide", "16",
                "--leaf-size", "16",
                "--seed", "5",
                "--artifact", str(artifact),
            ]
        )
        assert code == 0
        document = load_artifact(str(artifact))
        assert document["experiment"] == "stream"
        assert document["fixed"]["seed"] == 5
        assert len(document["points"]) == 3
        assert "streaming" in document and document["streaming"]["window"] == 128
        out = capsys.readouterr().out
        assert "streaming lis session" in out

    def test_seed_changes_the_recorded_answers(self, tmp_path):
        documents = []
        for seed in (1, 2):
            artifact = tmp_path / f"stream-{seed}.json"
            assert cli_main(
                ["stream", "--window", "96", "--ticks", "2", "--slide", "8",
                 "--leaf-size", "16", "--seed", str(seed), "--artifact", str(artifact)]
            ) == 0
            documents.append(load_artifact(str(artifact)))
        answers = [
            [point["metrics"]["answer"] for point in document["points"]]
            for document in documents
        ]
        assert answers[0] != answers[1]
        # Same CLI line -> bit-identical recorded points.
        artifact = tmp_path / "stream-repeat.json"
        assert cli_main(
            ["stream", "--window", "96", "--ticks", "2", "--slide", "8",
             "--leaf-size", "16", "--seed", "1", "--artifact", str(artifact)]
        ) == 0
        repeat = load_artifact(str(artifact))
        assert [p["metrics"]["answer"] for p in repeat["points"]] == answers[0]

    def test_lcs_session(self, tmp_path):
        artifact = tmp_path / "stream-lcs.json"
        code = cli_main(
            ["stream", "--session", "lcs", "--window", "64", "--ticks", "2",
             "--slide", "8", "--leaf-size", "16", "--artifact", str(artifact)]
        )
        assert code == 0
        document = load_artifact(str(artifact))
        assert document["fixed"]["session"] == "lcs"
