"""Tests for the streaming sliding-window subsystem (:mod:`repro.streaming`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.seaweed as seaweed_module
import repro.streaming.aggregator as aggregator_module
from repro.experiments import load_artifact, run_experiment
from repro.experiments.cli import main as cli_main
from repro.lcs.dp_baseline import lcs_length_dp
from repro.lis import lis_length, rank_transform, value_interval_matrix
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
from repro.streaming.aggregator import _SWEEP_BATCH_LIMIT, LEAF_SIZE
from repro.workloads import make_sequence, make_string_pair


def _oracle_rank_scores(window, x, y, strict):
    """Patience-sort DP oracle for value-interval scores."""
    ranks = rank_transform(np.asarray(window), strict=strict)
    return np.asarray(
        [lis_length(ranks[(ranks >= xi) & (ranks < yi)].tolist()) for xi, yi in zip(x, y)],
        dtype=np.int64,
    )


@pytest.fixture
def small_leaves(monkeypatch):
    """Leaves of 8 elements (the aggregator reads ``LEAF_SIZE`` per append),
    so windows of tens of elements cross seams, evict across leaf
    boundaries and clip edge leaves."""
    monkeypatch.setattr(aggregator_module, "LEAF_SIZE", 8)


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
        identity = build_block_product(np.empty(0), np.empty(0, dtype=np.int64))
        assert combine_block_products(identity, block) is block
        assert combine_block_products(block, identity) is block

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
    @pytest.mark.usefixtures("small_leaves")
    @pytest.mark.parametrize("strict", [True, False])
    def test_random_tick_sequences_match_oracles(self, strict):
        rng = np.random.default_rng(3 if strict else 4)
        agg = SeaweedAggregator(strict=strict)
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

    @pytest.mark.usefixtures("small_leaves")
    @pytest.mark.parametrize("strict", [True, False])
    def test_root_product_is_bit_identical_to_rebuild(self, strict):
        rng = np.random.default_rng(5)
        agg = SeaweedAggregator(strict=strict)
        stream = rng.integers(0, 40, size=400).astype(float)
        agg.append(stream[:160])
        for tick in range(12):
            agg.append(stream[160 + tick * 20 : 180 + tick * 20])
            agg.evict(20)
            oracle = value_interval_matrix(agg.window_values(), strict=strict)
            assert agg.to_semilocal().matrix == oracle.matrix

    def test_touched_leaves_are_combed_in_one_call(self, monkeypatch):
        calls = []
        build = aggregator_module.build_block_matrices

        def counting_build(roots, *args):
            calls.append(len(roots))
            return build(roots, *args)

        monkeypatch.setattr(aggregator_module, "build_block_matrices", counting_build)
        rng = np.random.default_rng(60)
        stream = rng.integers(0, 5000, size=5 * LEAF_SIZE).astype(float)
        session = StreamingLIS(window=3 * LEAF_SIZE)
        session.push(stream[: 3 * LEAF_SIZE])
        assert session.lis_length() == lis_length(stream[: 3 * LEAF_SIZE].tolist())
        assert calls == [3]
        # Sliding by half a leaf touches the head leaf (evicted prefix) and
        # a new tail leaf: both are combed in the one call of the next read.
        half = LEAF_SIZE // 2
        session.push(stream[3 * LEAF_SIZE : 3 * LEAF_SIZE + half])
        assert session.lis_length() == lis_length(session.window_values().tolist())
        assert calls == [3, 2]
        assert session.counters()["blocks_built"] == 5

    @pytest.mark.usefixtures("small_leaves")
    def test_substring_scores_match_patience(self):
        rng = np.random.default_rng(7)
        agg = SeaweedAggregator()
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

    @pytest.mark.usefixtures("small_leaves")
    def test_window_sweep_matches_rebuilt_matrix(self):
        rng = np.random.default_rng(8)
        agg = SeaweedAggregator()
        agg.append(rng.integers(0, 99, size=120).astype(float))
        agg.evict(13)
        oracle = value_interval_matrix(agg.window_values())
        starts = np.arange(0, len(agg) - 24 + 1, 6)
        assert np.array_equal(agg.window_sweep(24, 6), oracle.score(starts, starts + 24))

    def test_update_rebuilds_one_leaf(self):
        agg = SeaweedAggregator()
        agg.append(np.arange(4 * LEAF_SIZE, dtype=float))
        agg.lis_length()  # comb every leaf
        before = agg.stats.blocks_built
        agg.update(LEAF_SIZE + 20, -3.0)
        assert agg.lis_length() == 4 * LEAF_SIZE - 1
        assert agg.stats.blocks_built - before == 1, "update must re-comb only its leaf"

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

    def test_nbytes_accounts_score_tables(self):
        block = build_block_product(np.asarray([2.0, 1.0, 3.0]), -np.arange(3))
        before = block.nbytes
        block.score_table()
        assert block.nbytes > before, "score tables must be accounted"
        agg = SeaweedAggregator()
        agg.append(np.arange(2 * LEAF_SIZE + 5, dtype=float))
        agg.lis_length()
        leaves = sum(leaf.product.nbytes for leaf in agg._leaves)
        assert agg.nbytes == leaves
        agg.window_sweep(8)
        assert agg.nbytes == leaves + agg.to_semilocal().matrix.nbytes

    def test_counters_shape(self):
        agg = SeaweedAggregator()
        agg.append(np.arange(LEAF_SIZE + 20, dtype=float))
        agg.lis_length()
        doc = agg.counters()
        assert set(doc) == {
            "blocks_built", "elements_appended", "elements_evicted", "updates",
            "seam_sweeps", "window", "leaves", "nbytes",
        }
        assert doc["window"] == LEAF_SIZE + 20 and doc["leaves"] == 2

    def test_no_multiply_on_the_sliding_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a ⊡ multiply ran on the sliding path")

        monkeypatch.setattr(aggregator_module, "multiply", refuse)
        monkeypatch.setattr(seaweed_module, "multiply_permutations", refuse)
        rng = np.random.default_rng(61)
        session = StreamingLIS(window=4 * LEAF_SIZE)
        stream = rng.integers(0, 1000, size=8 * LEAF_SIZE).astype(float)
        session.push(stream[: 4 * LEAF_SIZE])
        for tick in range(4):
            lo = 4 * LEAF_SIZE + tick * LEAF_SIZE
            session.push(stream[lo : lo + LEAF_SIZE])
            window = session.window_values()
            assert session.lis_length() == lis_length(window.tolist())
            session.rank_intervals([0, 10, 100], [200, 150, 256])
            session.substring_scores([3, 70], [250, 190])
        reference, t = make_string_pair("correlated_pair", 96, seed=4)
        lcs = StreamingLCS(reference[:48], window=48)
        lcs.push(t[:48])
        lcs.push(t[48:])
        assert lcs.lcs_length() == lcs_length_dp(reference[:48], t[48:])
        lcs.query_batch([0, 5], [40, 30])


# ------------------------------------------------------------------- sessions
class TestStreamingLIS:
    @pytest.mark.usefixtures("small_leaves")
    def test_push_maintains_the_window_cap(self):
        session = StreamingLIS(window=50)
        rng = np.random.default_rng(9)
        stream = rng.integers(0, 30, size=200).astype(float)
        session.push(stream[:50])
        for tick in range(10):
            dropped = session.push(stream[50 + tick * 15 : 65 + tick * 15])
            assert dropped == 15 and len(session) == 50
            lo = 65 + tick * 15 - 50
            assert np.array_equal(session.window_values(), stream[lo : lo + 50])
            assert session.lis_length() == lis_length(session.window_values())

    @pytest.mark.usefixtures("small_leaves")
    def test_non_strict_session(self):
        session = StreamingLIS(window=40, strict=False)
        rng = np.random.default_rng(10)
        stream = rng.integers(0, 5, size=120).astype(float)  # duplicate-heavy
        session.push(stream[:40])
        for tick in range(8):
            session.push(stream[40 + tick * 10 : 50 + tick * 10])
            assert session.lis_length() == lis_length(session.window_values(), strict=False)

    @pytest.mark.usefixtures("small_leaves")
    def test_rank_probes_and_substring_probes(self):
        session = StreamingLIS(window=64)
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
    @pytest.mark.usefixtures("small_leaves")
    def test_sliding_lcs_matches_dp(self):
        rng = np.random.default_rng(12)
        reference = rng.integers(0, 6, size=36)
        session = StreamingLCS(reference, window=28)
        stream = rng.integers(0, 6, size=100)
        session.push(stream[:28])
        for tick in range(12):
            session.push(stream[28 + tick * 6 : 34 + tick * 6])
            assert session.t_length == 28
            t_window = session.t_window()
            assert session.lcs_length() == lcs_length_dp(reference, t_window)

    @pytest.mark.usefixtures("small_leaves")
    def test_subwindow_queries_and_sweep(self):
        rng = np.random.default_rng(13)
        reference = rng.integers(0, 5, size=24)
        session = StreamingLCS(reference)
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


# ----------------------------------------------------- generated op sequences
_LIS_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["push", "append", "evict"]), st.integers(1, 2 * LEAF_SIZE)),
        st.tuples(st.just("update"), st.integers(0, 10**6)),
    ),
    min_size=1,
    max_size=6,
)


def _probe_windows(rng, m, count):
    x = rng.integers(0, m + 1, size=count)
    return x, np.minimum(m, x + rng.integers(0, m + 1, size=count))


class TestGeneratedSessions:
    """Op sequences on windows of up to five leaves, every answer checked.

    Each example warms its window up first, so the ops act on several leaves;
    symbol values come from a drawn seed.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        strict=st.booleans(),
        window=st.integers(1, 5 * LEAF_SIZE),
        ops=_LIS_OPS,
        seed=st.integers(0, 2**16),
    )
    def test_lis_session_matches_patience_and_rebuild(self, strict, window, ops, seed):
        rng = np.random.default_rng(seed)
        session = StreamingLIS(window=window, strict=strict)
        model = rng.integers(0, 40, size=window).astype(float).tolist()
        session.push(model)
        for op, arg in ops:
            if op in ("push", "append"):
                values = rng.integers(0, 40, size=arg).astype(float).tolist()
                getattr(session, op)(values)
                model += values
                if op == "push":
                    model = model[max(0, len(model) - window) :]
            elif op == "evict":
                assert session.evict(arg) == min(arg, len(model))
                model = model[arg:]
            elif model:
                value = float(rng.integers(0, 40))
                session.update(arg % len(model), value)
                model[arg % len(model)] = value
            m = len(model)
            assert np.array_equal(session.window_values(), np.asarray(model))
            assert session.lis_length() == lis_length(model, strict=strict)
            # Narrow batches take the seam sweep; the wide one (and every
            # query after it until the next mutation) reads the window comb.
            for count in (3, _SWEEP_BATCH_LIMIT + 4):
                x, y = _probe_windows(rng, m, count)
                assert np.array_equal(
                    session.rank_intervals(x, y), _oracle_rank_scores(model, x, y, strict)
                )
            i, j = _probe_windows(rng, m, 4)
            assert session.substring_scores(i, j).tolist() == [
                lis_length(model[lo:hi], strict=strict) for lo, hi in zip(i, j)
            ]
            if m:
                rebuilt = value_interval_matrix(np.asarray(model), strict=strict)
                width = int(rng.integers(1, m + 1))
                starts = np.arange(0, m - width + 1, 3)
                assert np.array_equal(
                    session.window_sweep(width, 3), rebuilt.score(starts, starts + width)
                )
                assert session.to_semilocal().matrix == rebuilt.matrix

    @settings(max_examples=15, deadline=None)
    @given(
        window=st.integers(1, 48),
        ops=st.lists(
            st.tuples(st.sampled_from(["push", "append", "evict"]), st.integers(1, 24)),
            min_size=1,
            max_size=5,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_lcs_session_matches_dp(self, window, ops, seed):
        rng = np.random.default_rng(seed)
        # Four symbols over 24 reference positions: about six match points
        # per T symbol, so a full window spans several leaves.
        reference = rng.integers(0, 4, size=24)
        session = StreamingLCS(reference, window=window)
        model = rng.integers(0, 5, size=window).tolist()
        session.push(np.asarray(model))
        for op, arg in ops:
            if op == "evict":
                assert session.evict(arg) == min(arg, len(model))
                model = model[arg:]
            else:
                symbols = rng.integers(0, 5, size=arg).tolist()
                getattr(session, op)(np.asarray(symbols))
                model += symbols
                if op == "push":
                    model = model[max(0, len(model) - window) :]
            t = np.asarray(model, dtype=reference.dtype)
            assert np.array_equal(session.t_window(), t)
            assert session.lcs_length() == lcs_length_dp(reference, t)
            i, j = _probe_windows(rng, len(model), 3)
            assert session.query_batch(i, j).tolist() == [
                lcs_length_dp(reference, t[lo:hi]) for lo, hi in zip(i, j)
            ]


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
            "random", n=256, ticks=4, slide=16, rebuild_sample=1
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
                 "--seed", str(seed), "--artifact", str(artifact)]
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
             "--seed", "1", "--artifact", str(artifact)]
        ) == 0
        repeat = load_artifact(str(artifact))
        assert [p["metrics"]["answer"] for p in repeat["points"]] == answers[0]

    def test_lcs_session(self, tmp_path):
        artifact = tmp_path / "stream-lcs.json"
        code = cli_main(
            ["stream", "--session", "lcs", "--window", "64", "--ticks", "2",
             "--slide", "8", "--artifact", str(artifact)]
        )
        assert code == 0
        document = load_artifact(str(artifact))
        assert document["fixed"]["session"] == "lcs"
