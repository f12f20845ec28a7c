"""End-to-end integration tests across the whole pipeline."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import multiply_permutations, random_permutation
from repro.core import combine as core_combine
from repro.core.combine import ColoredPointSet
from repro.core.dense import multiply_dense
from repro.core.seaweed import expand_block_results, split_into_blocks
from repro.lis import lis_length, lis_length_seaweed, mpc_lis_length, value_interval_matrix
from repro.lcs import count_matches, lcs_cluster_for, lcs_length_dp, mpc_lcs_length
from repro.mpc import MPCCluster
from repro.mpc_monge import MongeMPCConfig, SubgridInstance, mpc_multiply
from repro.mpc_monge import constant_round
from repro.mpc_monge.constant_round import mpc_combine
from repro.workloads import planted_lis_sequence, random_permutation_sequence, random_string_pair


def colored_union(n, num_blocks, rng):
    """A random product's expanded sub-results: the colored union, its point
    set and the expected product."""
    pa, pb = random_permutation(n, rng), random_permutation(n, rng)
    split = split_into_blocks(pa, pb, num_blocks)
    results = [
        multiply_dense(a, b).as_permutation()
        for a, b in zip(split.a_blocks, split.b_blocks)
    ]
    rows, cols, colors = expand_block_results(results, split)
    ps = ColoredPointSet(rows, cols, colors, num_blocks, n, n)
    return rows, cols, colors, ps, multiply_permutations(pa, pb)


def subgrid_instance(rows, cols, colors, ps, r0, r1, c0, c1):
    """The machine-local instance of subgrid ``[r0, r1) x [c0, c1)``: its band
    points, from the union sorted by row and by column, and the per-color
    offsets at ``(r0, c0)`` read from the global point set."""
    order_r = np.argsort(rows, kind="stable")
    order_c = np.argsort(cols, kind="stable")
    rr, rc, rcol = rows[order_r], cols[order_r], colors[order_r]
    cr, cc, ccol = rows[order_c], cols[order_c], colors[order_c]
    row_sel = (rr >= r0) & (rr < r1)
    col_sel = (cc >= c0) & (cc < c1)
    return SubgridInstance(
        r0=int(r0), r1=int(r1), c0=int(c0), c1=int(c1), num_colors=ps.num_colors,
        band_row_rows=rr[row_sel], band_row_cols=rc[row_sel], band_row_colors=rcol[row_sel],
        band_col_rows=cr[col_sel], band_col_cols=cc[col_sel], band_col_colors=ccol[col_sel],
        row_total_at_r0=ps.row_suffix_counts(np.array([r0]))[0],
        col_total_at_c0=ps.col_prefix_counts(np.array([c0]))[0],
        corner_value=ps.dominance_counts(np.array([r0]), np.array([c0]))[0],
    )


class TestSubgridInstance:
    def test_local_sigma_matches_global(self, rng):
        n, H = 48, 3
        rows, cols, colors, ps, _ = colored_union(n, H, rng)
        r0, r1, c0, c1 = 12, 24, 24, 36
        instance = subgrid_instance(rows, cols, colors, ps, r0, r1, c0, c1)
        # The subgrid-local evaluator must agree with the global one everywhere
        # inside the subgrid (this is the §3.3 locality argument).
        test_r = np.array([r0, r0 + 3, r1 - 1, r1, r0 + 7])
        test_c = np.array([c0, c0 + 5, c1, c1 - 2, c0 + 9])
        assert np.array_equal(instance.sigma(test_r, test_c), ps.sigma(test_r, test_c))
        assert instance.size_words > 0

    def test_mpc_combine_space_report(self, rng):
        n = 96
        rows, cols, colors, ps, expected = colored_union(n, 4, rng)
        cluster = MPCCluster(n, delta=0.5)
        merged, report = mpc_combine(
            cluster, rows, cols, colors, 4, n, MongeMPCConfig(grid_size=12)
        )
        assert merged.as_permutation() == expected
        assert report.max_instance_words <= cluster.space_per_machine


def _recording(calls, function):
    def wrapper(*args):
        result = function(*args)
        calls.append((args, result))
        return result

    return wrapper


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=256),
    fanin=st.integers(min_value=2, max_value=5),
    grid_size=st.integers(min_value=4, max_value=64),
    delta=st.sampled_from([0.25, 0.5]),
    dense_tables=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_batched_subgrid_solve_matches_instances_property(
    n, fanin, grid_size, delta, dense_tables, seed
):
    """Property: the combine's batched subgrid pass is what one machine per
    active subgrid would compute from its own instance, point for point and
    word for word, on the dense-table and on the rank-tree point set."""
    rows, cols, colors, ps, expected = colored_union(n, fanin, np.random.default_rng(seed))
    cluster = MPCCluster(n, delta=delta)
    sized, solved = [], []
    table_limit = core_combine.DENSE_TABLE_LIMIT if dense_tables else 0
    with mock.patch.object(core_combine, "DENSE_TABLE_LIMIT", table_limit), mock.patch.object(
        constant_round, "instance_words", _recording(sized, constant_round.instance_words)
    ), mock.patch.object(
        constant_round, "_solve_subgrids", _recording(solved, constant_round._solve_subgrids)
    ):
        merged, report = mpc_combine(
            cluster, rows, cols, colors, fanin, n, MongeMPCConfig(grid_size=grid_size)
        )
    assert merged.as_permutation() == expected
    [(_, words)] = sized
    [((_, r0, r1, c0, c1), (found_rows, found_cols))] = solved
    assert len(r0) == len(words) == report.num_active_subgrids
    for k in range(len(r0)):
        instance = subgrid_instance(rows, cols, colors, ps, r0[k], r1[k], c0[k], c1[k])
        inside = (
            (found_rows >= r0[k]) & (found_rows < r1[k])
            & (found_cols >= c0[k]) & (found_cols < c1[k])
        )
        local_rows, local_cols = instance.solve()
        assert np.array_equal(local_rows, found_rows[inside])
        assert np.array_equal(local_cols, found_cols[inside])
        assert instance.size_words == words[k]
    assert report.max_instance_words == max(words.tolist(), default=0)


class TestPipelines:
    def test_lis_three_ways_agree(self):
        seq = planted_lis_sequence(350, 120, seed=17)
        sequential = lis_length(seq)
        seaweed = lis_length_seaweed(seq)
        cluster = MPCCluster(len(seq), delta=0.5)
        distributed = mpc_lis_length(cluster, seq)
        assert sequential == seaweed == distributed

    def test_multiply_three_ways_agree(self, rng):
        n = 180
        pa, pb = random_permutation(n, rng), random_permutation(n, rng)
        dense = multiply_dense(pa, pb).as_permutation()
        sequential = multiply_permutations(pa, pb)
        cluster = MPCCluster(n, delta=0.5)
        distributed = mpc_multiply(cluster, pa, pb)
        assert dense == sequential == distributed

    def test_lcs_pipeline(self):
        s, t = random_string_pair(40, 5, seed=21)
        cluster = lcs_cluster_for(len(s), len(t), count_matches(s, t))
        assert mpc_lcs_length(cluster, s, t).length == lcs_length_dp(s, t)

    def test_semilocal_value_queries_consistent_with_mpc(self):
        seq = random_permutation_sequence(120, seed=23)
        sequential = value_interval_matrix(seq)
        cluster = MPCCluster(len(seq), delta=0.5)
        from repro.lis import mpc_lis_matrix

        distributed = mpc_lis_matrix(cluster, seq, kind="value")
        assert sequential.matrix == distributed.semilocal.matrix

    def test_table1_qualitative_content(self):
        """The qualitative content of Table 1.

        This paper's algorithm uses strictly fewer rounds than the CHS23-style
        baseline at the same scale, and — unlike KT10 — it remains admissible
        in the fully-scalable regime (δ = 0.5).
        """
        from repro.baselines import chs23_lis_length, kt10_lis_length
        from repro.mpc import ScalabilityError

        n = 2048
        seq = random_permutation_sequence(n, seed=29)
        ours = MPCCluster(n, delta=0.5)
        assert mpc_lis_length(ours, seq) == lis_length(seq)
        chs23 = MPCCluster(n, delta=0.5)
        chs23_lis_length(chs23, seq)
        assert ours.stats.num_rounds < chs23.stats.num_rounds
        with pytest.raises(ScalabilityError):
            kt10_lis_length(MPCCluster(n, delta=0.5), seq)
        # KT10 works (and is exact) in its restricted range of δ.
        kt10 = MPCCluster(n, delta=0.25)
        assert kt10_lis_length(kt10, seq) == lis_length(seq)
