"""Tests for the multiway combine engine (Lemmas 3.1-3.10)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import random_permutation, multiply_dense
from repro.core.combine import ColoredPointSet, combine_colored, sigma_from_colored_dense
from repro.core.seaweed import expand_block_results, split_into_blocks


def make_colored_instance(n, num_blocks, rng):
    """Split a random product instance and return expanded colored sub-results."""
    pa, pb = random_permutation(n, rng), random_permutation(n, rng)
    split = split_into_blocks(pa, pb, num_blocks)
    sub_results = [
        multiply_dense(a, b).as_permutation()
        for a, b in zip(split.a_blocks, split.b_blocks)
    ]
    rows, cols, colors = expand_block_results(sub_results, split)
    expected = multiply_dense(pa, pb)
    return rows, cols, colors, expected


class TestColoredPointSet:
    def test_union_is_full_permutation(self, rng):
        rows, cols, colors, _ = make_colored_instance(16, 4, rng)
        assert len(rows) == 16
        assert sorted(rows.tolist()) == list(range(16))
        assert sorted(cols.tolist()) == list(range(16))

    def test_sigma_matches_dense_minplus(self, rng):
        for num_blocks in (2, 3, 5):
            rows, cols, colors, expected = make_colored_instance(14, num_blocks, rng)
            ps = ColoredPointSet(rows, cols, colors, num_blocks, 14, 14)
            sigma = sigma_from_colored_dense(ps)
            assert np.array_equal(sigma, expected.distribution_matrix())

    def test_opt_is_monotone(self, rng):
        rows, cols, colors, _ = make_colored_instance(12, 3, rng)
        ps = ColoredPointSet(rows, cols, colors, 3, 12, 12)
        grid = np.arange(13)
        ii, jj = np.meshgrid(grid, grid, indexing="ij")
        opt = ps.opt(ii.ravel(), jj.ravel()).reshape(13, 13)
        # Lemmas 3.5 / 3.6: opt is nondecreasing along rows and columns.
        assert np.all(np.diff(opt, axis=0) >= 0)
        assert np.all(np.diff(opt, axis=1) >= 0)

    def test_combine_equals_dense(self, rng):
        for n in (5, 9, 17, 33):
            for num_blocks in (2, 3, 4):
                rows, cols, colors, expected = make_colored_instance(n, num_blocks, rng)
                merged = combine_colored(rows, cols, colors, num_blocks, n, n)
                assert merged == expected

    def test_combine_large_instance_uses_tree_path(self, rng):
        # Pick n large enough that the dense-table fast path is disabled.
        from repro.core import combine as combine_module

        n = 80
        rows, cols, colors, expected = make_colored_instance(n, 4, rng)
        old_limit = combine_module.DENSE_TABLE_LIMIT
        combine_module.DENSE_TABLE_LIMIT = 1
        try:
            merged = combine_colored(rows, cols, colors, 4, n, n)
        finally:
            combine_module.DENSE_TABLE_LIMIT = old_limit
        assert merged == expected

    def test_row_point_columns_empty_rows(self):
        # A sub-permutation union with an empty row: no point reported there.
        rows = np.array([0, 2])
        cols = np.array([1, 0])
        colors = np.array([0, 1])
        ps = ColoredPointSet(rows, cols, colors, 2, 3, 3)
        found = ps.row_point_columns()
        assert found[1] == -1 or found[1] >= 0  # row 1 may or may not get a point

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ColoredPointSet(np.array([0]), np.array([5]), np.array([0]), 1, 3, 3)
        with pytest.raises(ValueError):
            ColoredPointSet(np.array([0]), np.array([0]), np.array([3]), 2, 3, 3)

    def test_dense_table_limit_parameter_forces_tree_path(self, rng):
        # The per-instance knob (threaded from MultiplyPlan) must select the
        # sparse color-major path without touching the module default.
        n = 24
        rows, cols, colors, expected = make_colored_instance(n, 3, rng)
        dense = ColoredPointSet(rows, cols, colors, 3, n, n)
        sparse = ColoredPointSet(rows, cols, colors, 3, n, n, dense_table_limit=0)
        assert dense._dense_tables is not None
        assert sparse._dense_tables is None
        assert dense.combine() == sparse.combine() == expected

    @pytest.mark.parametrize("num_colors", [1, 4])
    @pytest.mark.parametrize("dense_table_limit", [None, 0])
    def test_vectorised_counts_match_bruteforce(self, rng, dense_table_limit, num_colors):
        # None keeps the in-place dense tables, 0 forces the sparse path.
        n = 40
        rows, cols, colors, _ = make_colored_instance(n, num_colors, rng)
        ps = ColoredPointSet(
            rows, cols, colors, num_colors, n, n, dense_table_limit=dense_table_limit
        )
        assert (ps._dense_tables is None) == (dense_table_limit == 0)
        queries_i = np.concatenate([[0, n], rng.integers(0, n + 1, size=25)])
        queries_j = np.concatenate([[n, 0], rng.integers(0, n + 1, size=25)])
        suffix = ps.row_suffix_counts(queries_i)
        prefix = ps.col_prefix_counts(queries_j)
        dom = ps.dominance_counts(queries_i, queries_j)
        for b in range(len(queries_i)):
            for x in range(num_colors):
                mask = colors == x
                assert suffix[b, x] == np.count_nonzero(mask & (rows >= queries_i[b]))
                assert prefix[b, x] == np.count_nonzero(mask & (cols < queries_j[b]))
                assert dom[b, x] == np.count_nonzero(
                    mask & (rows >= queries_i[b]) & (cols < queries_j[b])
                )

    def test_sparse_and_dense_sigma_agree(self, rng):
        n = 18
        rows, cols, colors, _ = make_colored_instance(n, 3, rng)
        dense = ColoredPointSet(rows, cols, colors, 3, n, n)
        sparse = ColoredPointSet(rows, cols, colors, 3, n, n, dense_table_limit=0)
        assert np.array_equal(
            sigma_from_colored_dense(dense), sigma_from_colored_dense(sparse)
        )

    def test_nbytes_accounts_for_query_structures(self, rng):
        n = 30
        rows, cols, colors, _ = make_colored_instance(n, 3, rng)
        point_bytes = rows.nbytes + cols.nbytes + colors.nbytes
        dense = ColoredPointSet(rows, cols, colors, 3, n, n)
        sparse = ColoredPointSet(rows, cols, colors, 3, n, n, dense_table_limit=0)
        # Dense tables and the color-major arrays + rank tree both count.
        assert dense.nbytes >= point_bytes + dense._dense_tables.nbytes
        assert sparse.nbytes > point_bytes
        assert sparse.nbytes >= point_bytes + sparse._rank_tree.nbytes

    def test_empty_point_set_paths(self):
        for limit in (None, 0):
            ps = ColoredPointSet(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                2, 4, 4,
                dense_table_limit=limit,
            )
            merged = ps.combine()
            assert merged.num_nonzeros == 0
            assert np.array_equal(ps.sigma(np.array([0, 4]), np.array([4, 0])), [0, 0])
            assert ps.nbytes >= 0


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=28),
    num_blocks=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_combine_matches_dense_property(n, num_blocks, seed):
    """Property: the multiway combine always equals the dense oracle."""
    rng = np.random.default_rng(seed)
    num_blocks = min(num_blocks, n)
    rows, cols, colors, expected = make_colored_instance(n, num_blocks, rng)
    merged = combine_colored(rows, cols, colors, num_blocks, n, n)
    assert merged == expected
