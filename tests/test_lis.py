"""Tests for the sequential LIS algorithms (patience, DP, semi-local seaweed)."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.permutation import SubPermutation
from repro.core.seaweed import multiply
from repro.lis import (
    lis_length,
    lis_length_dp,
    lis_length_seaweed,
    lis_sequence,
    longest_nondecreasing_length,
    mpc_lis_matrix,
    rank_transform,
    subsegment_matrix,
    value_interval_matrix,
)
from repro.lis.dp_baseline import lis_of_all_substrings, lis_of_value_ranges
from repro.lis.patience import lds_length
from repro.lis.semilocal import DENSE_BLOCK_SIZE, build_block_matrices, comb_block_matrices
from repro.mpc.cluster import MPCCluster
from repro.workloads import (
    block_sorted_sequence,
    decreasing_sequence,
    duplicate_heavy_sequence,
    planted_lis_sequence,
    random_permutation_sequence,
)


def dense_block_matrix(split_coords: np.ndarray, index_coords: np.ndarray) -> SubPermutation:
    """Oracle: a block's matrix from one patience pass per left endpoint.

    For every left endpoint ``x``, a patience pass over the block's elements
    (in split order, keeping only index values ``>= x``) produces the array of
    minimal tails; the semi-local score is then ``T(x, y) = #{tails < y}``.
    The block matrix is recovered from the dense score table by finite
    differences of ``K = span - T``.
    """
    m = len(index_coords)
    order = np.argsort(split_coords, kind="stable")
    sorted_idx = np.sort(index_coords)
    compact = np.searchsorted(sorted_idx, index_coords[order]).tolist()

    scores = np.zeros((m + 1, m + 1), dtype=np.int64)
    grid = np.arange(m + 1, dtype=np.int64)
    for x in range(m + 1):
        tails: list = []
        for value in compact:
            if value < x:
                continue
            pos = bisect.bisect_left(tails, value)
            if pos == len(tails):
                tails.append(value)
            else:
                tails[pos] = value
        scores[x, :] = np.searchsorted(np.asarray(tails, dtype=np.int64), grid, side="left")

    span = grid[None, :] - grid[:, None]
    dist = np.where(span > 0, span - scores, 0)
    density = dist[:-1, 1:] - dist[:-1, :-1] - dist[1:, 1:] + dist[1:, :-1]
    rows, cols = np.nonzero(density)
    return SubPermutation.from_points(rows, cols, m, m, validate=False)


#: Leaf sizes the whole-build properties draw from: single elements (every
#: product is a ``⊡``), a small leaf, the default, and one leaf for the whole
#: input (no product at all).
LEAF_SIZES = st.sampled_from([1, 32, DENSE_BLOCK_SIZE, 10**6])


class TestPatience:
    def test_known_cases(self):
        assert lis_length([]) == 0
        assert lis_length([5]) == 1
        assert lis_length([1, 2, 3]) == 3
        assert lis_length([3, 2, 1]) == 1
        assert lis_length([2, 1, 3, 0, 4]) == 3
        assert lis_length([1, 1, 1]) == 1
        assert longest_nondecreasing_length([1, 1, 1]) == 3

    def test_matches_dp(self, rng):
        for _ in range(20):
            n = int(rng.integers(0, 40))
            seq = rng.integers(0, 12, size=n)
            assert lis_length(seq) == lis_length_dp(seq)
            assert longest_nondecreasing_length(seq) == lis_length_dp(seq, strict=False)

    def test_certificate_is_valid(self, rng):
        for _ in range(20):
            seq = list(rng.integers(0, 30, size=int(rng.integers(1, 40))))
            cert = lis_sequence(seq)
            assert len(cert) == lis_length(seq)
            assert all(cert[i] < cert[i + 1] for i in range(len(cert) - 1))
            # The certificate must be a subsequence of the input.
            it = iter(seq)
            assert all(any(x == value for x in it) for value in cert)

    def test_lds(self):
        assert lds_length([3, 2, 1]) == 3
        assert lds_length([1, 2, 3]) == 1


class TestRankTransform:
    def test_permutation_output(self, rng):
        seq = rng.integers(0, 10, size=25)
        ranks = rank_transform(seq)
        assert sorted(ranks.tolist()) == list(range(25))

    def test_preserves_strict_lis(self, rng):
        for _ in range(20):
            seq = rng.integers(0, 8, size=int(rng.integers(1, 30)))
            assert lis_length(rank_transform(seq, strict=True)) == lis_length(seq)

    def test_preserves_nondecreasing_lis(self, rng):
        for _ in range(20):
            seq = rng.integers(0, 8, size=int(rng.integers(1, 30)))
            assert lis_length(rank_transform(seq, strict=False)) == longest_nondecreasing_length(seq)


class TestSeaweedLIS:
    def test_matches_patience_on_workloads(self):
        workloads = [
            random_permutation_sequence(150, seed=1),
            planted_lis_sequence(120, 40, seed=2),
            block_sorted_sequence(100, 10, seed=3),
            decreasing_sequence(80),
            duplicate_heavy_sequence(130, 9, seed=4),
            np.arange(60),
        ]
        for seq in workloads:
            assert lis_length_seaweed(seq) == lis_length(seq)

    def test_empty_sequence(self):
        assert lis_length_seaweed([]) == 0

    def test_matrix_point_count(self, rng):
        seq = random_permutation_sequence(60, seed=7)
        sl = value_interval_matrix(seq)
        assert sl.matrix.num_nonzeros == 60 - lis_length(seq)
        assert sl.lis_length() == lis_length(seq)

    def test_value_interval_queries(self, rng):
        seq = random_permutation_sequence(18, seed=8)
        sl = value_interval_matrix(seq)
        oracle = lis_of_value_ranges(seq)
        for x in range(19):
            for y in range(x, 19):
                assert sl.query_rank_interval(x, y) == oracle[x, y]

    def test_subsegment_queries(self, rng):
        seq = random_permutation_sequence(18, seed=9)
        sl = subsegment_matrix(seq)
        oracle = lis_of_all_substrings(seq)
        for i in range(19):
            for j in range(i, 19):
                assert sl.query_substring(i, j) == oracle[i, j]

    def test_kind_mismatch_raises(self):
        seq = random_permutation_sequence(10, seed=1)
        with pytest.raises(ValueError):
            value_interval_matrix(seq).query_substring(0, 5)
        with pytest.raises(ValueError):
            subsegment_matrix(seq).query_rank_interval(0, 5)

    def test_point_set_built_on_first_use(self):
        seq = random_permutation_sequence(200, seed=5)
        sl = value_interval_matrix(seq)
        assert sl._point_set is None
        assert sl.lis_length() == lis_length(seq)
        assert sl._point_set is None  # the length reads the matrix alone
        nbytes = sl.nbytes  # sizing builds the structure it will be served with
        assert sl._point_set is not None
        assert nbytes == sl.matrix.row_to_col.nbytes + sl._point_set.nbytes
        assert sl.query_rank_interval(0, 200) == lis_length(seq)
        solved = mpc_lis_matrix(MPCCluster(200, delta=0.5), seq)
        assert solved.length == lis_length(seq) and solved.semilocal._point_set is None

    def test_dense_block_size_does_not_change_result(self):
        seq = random_permutation_sequence(90, seed=11)
        a = value_interval_matrix(seq, dense_block_size=1).matrix
        b = value_interval_matrix(seq, dense_block_size=32).matrix
        c = value_interval_matrix(seq, dense_block_size=256).matrix
        assert a == b == c


@settings(max_examples=50, deadline=None)
@given(
    seq=st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=60),
    leaf=LEAF_SIZES,
)
def test_seaweed_lis_matches_patience_property(seq, leaf):
    """Property: the seaweed LIS equals patience sorting for arbitrary inputs."""
    assert value_interval_matrix(seq, dense_block_size=leaf).lis_length() == lis_length(seq)
    assert lis_length_seaweed(seq) == lis_length(seq)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=22),
    leaf=LEAF_SIZES,
)
def test_semilocal_subsegment_property(seed, n, leaf):
    """Property: every subsegment query equals the brute-force LIS."""
    rng = np.random.default_rng(seed)
    seq = rng.permutation(n)
    sl = subsegment_matrix(seq, dense_block_size=leaf)
    oracle = lis_of_all_substrings(seq)
    for i in range(0, n + 1, max(1, n // 4)):
        for j in range(i, n + 1, max(1, n // 4)):
            assert sl.query_substring(i, j) == oracle[i, j]


def _ordered_block(rng: np.random.Generator, size: int, order: str) -> np.ndarray:
    if order == "sorted":
        return np.arange(size)
    if order == "reversed":
        return np.arange(size)[::-1].copy()
    return rng.permutation(size)


@settings(max_examples=20, deadline=None)
@given(
    blocks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=300),
            st.sampled_from(["random", "sorted", "reversed"]),
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_batched_comb_matches_patience_oracle_property(blocks, seed):
    """Property: one comb over a stack of mixed-size blocks gives every block
    the matrix its own patience passes give."""
    rng = np.random.default_rng(seed)
    stack = [_ordered_block(rng, size, order) for size, order in blocks]
    combed = comb_block_matrices(stack)
    assert len(combed) == len(stack)
    for block, matrix in zip(stack, combed):
        assert matrix == dense_block_matrix(np.arange(len(block)), block)


class TestBlockForest:
    def test_empty_stack_and_empty_blocks(self):
        assert comb_block_matrices([]) == []
        assert build_block_matrices([]) == []
        empty, single = comb_block_matrices([np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)])
        assert empty == SubPermutation.empty(0, 0)
        assert single == SubPermutation.empty(1, 1)

    @pytest.mark.parametrize("leaf", [1, 7, 32, DENSE_BLOCK_SIZE])
    def test_forest_equals_one_build_per_root(self, rng, leaf):
        """Roots of different sizes share one comb; each keeps its own matrix,
        over its own compacted index universe."""
        roots = []
        for size in (0, 1, 5, 40, 90, 130):
            split = rng.permutation(size) * 3 + 1
            index = rng.choice(10 * size + 1, size=size, replace=False)
            roots.append((split, index))
        forest = build_block_matrices(roots, dense_block_size=leaf)
        for (split, index), matrix in zip(roots, forest):
            [alone] = build_block_matrices([(split, index)], dense_block_size=leaf)
            assert matrix == alone == dense_block_matrix(split, index)

    def test_leaf_builds_multiply_nothing(self, rng):
        calls = []

        def counted(a, b):
            calls.append(a.n_rows)
            return multiply(a, b)

        seq = rng.permutation(300)
        roots = [(np.arange(300), seq)]
        [whole] = build_block_matrices(roots, counted, dense_block_size=300)
        assert calls == []
        [split] = build_block_matrices(roots, counted, dense_block_size=100)
        assert calls == [150, 150, 300]  # two halves of 150 over 75-leaves, then the root
        assert whole == split
