"""Tests for the multiway combine engine (Lemmas 3.1-3.10)."""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import combine as combine_module
from repro.core import random_permutation, multiply_dense
from repro.core.combine import ColoredPointSet, combine_colored, sigma_from_colored_dense
from repro.core.seaweed import expand_block_results, split_into_blocks
from repro.service.index import build_lis_index
from repro.workloads import make_sequence


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


def cell_budget(budget):
    """Patch the block-row table's cell budget (``None`` keeps the default).

    A budget of 0 sends every point set built under the patch to the rank
    tree; the point set reads the budget once, in its constructor.
    """
    if budget is None:
        return nullcontext()
    return mock.patch.object(combine_module, "BLOCK_TABLE_LIMIT", budget)


def uses_rank_tree(point_set):
    return isinstance(point_set._counts, combine_module._RankTreeCounts)


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
        # A budget one cell short of this instance's block-row table makes
        # it a large instance: the rank tree answers, with the same product.
        n = 80
        rows, cols, colors, expected = make_colored_instance(n, 4, rng)
        cells = ColoredPointSet(rows, cols, colors, 4, n, n)._counts._table.size
        with cell_budget(cells):
            block = ColoredPointSet(rows, cols, colors, 4, n, n)
        with cell_budget(cells - 1):
            tree = ColoredPointSet(rows, cols, colors, 4, n, n)
        assert not uses_rank_tree(block)
        assert uses_rank_tree(tree)
        assert tree.combine() == block.combine() == expected

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

    def test_zero_cell_budget_forces_tree_path(self, rng):
        # The budget is read per construction: a point set built under a
        # zero budget keeps the rank tree after the budget is restored.
        n = 24
        rows, cols, colors, expected = make_colored_instance(n, 3, rng)
        with cell_budget(0):
            tree = ColoredPointSet(rows, cols, colors, 3, n, n)
        block = ColoredPointSet(rows, cols, colors, 3, n, n)
        assert not uses_rank_tree(block)
        assert uses_rank_tree(tree)
        assert block.combine() == tree.combine() == expected

    @pytest.mark.parametrize("num_colors", [1, 4])
    @pytest.mark.parametrize("budget", [None, 0])
    def test_vectorised_counts_match_bruteforce(self, rng, budget, num_colors):
        # None keeps the block-row table, 0 forces the rank tree.
        n = 40
        rows, cols, colors, _ = make_colored_instance(n, num_colors, rng)
        with cell_budget(budget):
            ps = ColoredPointSet(rows, cols, colors, num_colors, n, n)
        assert uses_rank_tree(ps) == (budget == 0)
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
        # The block-row table (dense in the columns) and the rank tree
        # (sparse) give the same PΣ_C at every corner.
        n = 18
        rows, cols, colors, _ = make_colored_instance(n, 3, rng)
        block = ColoredPointSet(rows, cols, colors, 3, n, n)
        with cell_budget(0):
            tree = ColoredPointSet(rows, cols, colors, 3, n, n)
        assert np.array_equal(
            sigma_from_colored_dense(block), sigma_from_colored_dense(tree)
        )

    def test_nbytes_accounts_for_query_structures(self, rng):
        n = 30
        rows, cols, colors, _ = make_colored_instance(n, 3, rng)
        point_bytes = rows.nbytes + cols.nbytes + colors.nbytes
        block = ColoredPointSet(rows, cols, colors, 3, n, n)
        with cell_budget(0):
            tree = ColoredPointSet(rows, cols, colors, 3, n, n)
        # The block-row table and the color-major arrays + rank tree both count.
        assert block.nbytes >= point_bytes + block._counts._table.nbytes
        assert tree.nbytes > point_bytes
        assert tree.nbytes >= point_bytes + tree._counts._rank_tree.nbytes

    def test_empty_point_set_paths(self):
        for budget in (None, 0):
            with cell_budget(budget):
                ps = ColoredPointSet(
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                    2, 4, 4,
                )
            assert uses_rank_tree(ps) == (budget == 0)
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


def brute_force_counts(rows, cols, colors, num_colors, n):
    """Per-color row-suffix, col-prefix and dominance counts at every corner
    of ``[0, n]²``, and ``PΣ_C = min_q F_q`` (Lemma 3.2), counted point by
    point.  Returns ``suffix[x, i]``, ``prefix[x, j]``, ``dom[x, i, j]`` and
    ``sigma[i, j]``."""
    grid = np.arange(n + 1)
    below_i = (rows[None, :] >= grid[:, None]).astype(np.int64)  # (n + 1, P)
    left_of_j = (cols[None, :] < grid[:, None]).astype(np.int64)
    masks = [(colors == x).astype(np.int64) for x in range(num_colors)]
    suffix = np.stack([below_i @ m for m in masks])
    prefix = np.stack([left_of_j @ m for m in masks])
    dom = np.stack([(below_i * m) @ left_of_j.T for m in masks])
    f = [
        suffix[:q].sum(axis=0)[:, None] + dom[q] + prefix[q + 1:].sum(axis=0)[None, :]
        for q in range(num_colors)
    ]
    return suffix, prefix, dom, np.min(f, axis=0)


def dense_oracle_points(sigma):
    """The points of the sub-permutation whose distribution matrix is
    ``sigma``, by differencing it, or ``None`` if it is not one."""
    density = sigma[:-1, 1:] - sigma[:-1, :-1] - sigma[1:, 1:] + sigma[1:, :-1]
    if density.size and (
        density.min() < 0 or density.max() > 1
        or density.sum(axis=0).max() > 1 or density.sum(axis=1).max() > 1
    ):
        return None
    return np.nonzero(density)


@st.composite
def colored_unions(draw):
    """Colored point sets with ``n <= 80`` and ``H <= 6``.

    Half are the H-way unions of a product instance (full permutations,
    with a dense product to compare against); the others are random colored
    sub-permutations with empty rows and columns, whose point count is
    drawn next to a block boundary (``kB - 1``, ``kB``, ``kB + 1``) half the
    time.
    """
    n = draw(st.integers(min_value=0, max_value=80))
    num_colors = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if n and draw(st.booleans()):
        num_colors = min(num_colors, n)
        rows, cols, colors, expected = make_colored_instance(n, num_colors, rng)
        return rows, cols, colors, num_colors, n, expected
    block = combine_module._block_size(n)
    boundaries = sorted(
        {k * block + d for k in range(n // block + 2) for d in (-1, 0, 1)} & set(range(n + 1))
    )
    if draw(st.booleans()):
        num_points = draw(st.sampled_from(boundaries))
    else:
        num_points = draw(st.integers(min_value=0, max_value=n))
    rows = rng.choice(n, size=num_points, replace=False).astype(np.int64)
    cols = rng.choice(n, size=num_points, replace=False).astype(np.int64)
    colors = rng.integers(0, num_colors, size=num_points).astype(np.int64)
    return rows, cols, colors, num_colors, n, None


@pytest.mark.parametrize("budget", [None, 0])
@settings(max_examples=60, deadline=None)
@given(union=colored_unions())
def test_point_set_matches_bruteforce_property(budget, union):
    """Property: on the block-row table (default budget) and on the rank tree
    (budget 0), every count, PΣ_C and the combine agree with brute force
    and with the dense product at every corner."""
    rows, cols, colors, num_colors, n, expected = union
    with cell_budget(budget):
        ps = ColoredPointSet(rows, cols, colors, num_colors, n, n)
    assert uses_rank_tree(ps) == (budget == 0)
    suffix, prefix, dom, sigma = brute_force_counts(rows, cols, colors, num_colors, n)
    ii, jj = (a.ravel() for a in np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij"))
    assert np.array_equal(ps.row_suffix_counts(np.arange(n + 1)), suffix.T)
    assert np.array_equal(ps.col_prefix_counts(np.arange(n + 1)), prefix.T)
    assert np.array_equal(ps.dominance_counts(ii, jj), dom.reshape(num_colors, -1).T)
    assert np.array_equal(ps.sigma(ii, jj), sigma.ravel())
    # Where min_q F_q is a sub-permutation's distribution matrix (always on
    # a product's union, and for one color), the combine recovers it.
    oracle = dense_oracle_points(sigma)
    if expected is not None:
        assert oracle is not None
        assert ps.combine() == expected
    if oracle is not None:
        found_rows, found_cols = ps.combine().points()
        assert np.array_equal(found_rows, oracle[0])
        assert np.array_equal(found_cols, oracle[1])


def test_block_table_budget_boundary():
    """The first size whose block-row table exceeds the cell budget takes the
    rank tree, and the size below it the table."""
    def cells(n):  # a full permutation of n points, one color
        return (n // combine_module._block_size(n) + 2) * (n + 1)

    first_over = next(n for n in range(1, 1 << 16) if cells(n) > combine_module.BLOCK_TABLE_LIMIT)
    rng = np.random.default_rng(7)
    for n, tree in ((first_over - 1, False), (first_over, True)):
        cols = rng.permutation(n)
        ps = ColoredPointSet(np.arange(n), cols, np.zeros(n, dtype=np.int64), 1, n, n)
        assert uses_rank_tree(ps) == tree
        if not tree:
            assert ps._counts._table.size == cells(n)
        probe = rng.integers(0, n + 1, size=(2, 64))
        assert np.array_equal(
            ps.dominance_counts(probe[0], probe[1])[:, 0],
            [np.count_nonzero(cols[i:] < j) for i, j in probe.T],
        )


@pytest.mark.parametrize("n", [1024, 2048, 16384])
def test_index_bytes_stay_near_the_rank_tree(n):
    """A semi-local index costs at most twice its rank-tree bytes, so the
    index cache's byte budget holds about as many indexes as on the rank tree,
    never the (n + 1)² cells of dense distribution tables."""
    semilocal = build_lis_index(make_sequence("random", n, seed=n)).semilocal
    rows, cols = semilocal.matrix.points()
    with cell_budget(0):
        tree = ColoredPointSet(rows, cols, np.zeros(len(rows), dtype=np.int64), 1, n, n)
    tree_bytes = semilocal.matrix.row_to_col.nbytes + tree.nbytes
    assert semilocal.nbytes <= 2 * tree_bytes
