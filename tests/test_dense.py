"""Unit tests for the dense ground-truth multiplication oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Permutation,
    SubPermutation,
    identity_permutation,
    is_distribution_matrix,
    multiply,
    multiply_dense,
    random_permutation,
    random_subpermutation,
)
from repro.core.dense import (
    MINPLUS_CHUNK_CELLS,
    minplus_distribution_product,
    multiply_dense_batch,
    subpermutation_from_distribution,
)


class TestMinPlusProduct:
    def test_shape_mismatch(self):
        a = np.zeros((3, 4), dtype=np.int64)
        b = np.zeros((5, 3), dtype=np.int64)
        with pytest.raises(ValueError):
            minplus_distribution_product(a, b)

    def test_identity_distribution(self):
        ident = identity_permutation(4)
        dist = ident.distribution_matrix()
        prod = minplus_distribution_product(dist, dist)
        assert np.array_equal(prod, dist)

    def test_small_known_product(self):
        # The reversal permutation is idempotent under the ⊡ product (its
        # distribution matrix is the pointwise smallest, hence absorbing).
        rev = Permutation([2, 1, 0])
        result = multiply_dense(rev, rev)
        assert result == rev
        assert multiply_dense(Permutation([1, 2, 0]), Permutation([2, 0, 1])) == rev

    def test_identity_is_neutral(self, rng):
        p = random_permutation(9, rng)
        ident = identity_permutation(9)
        assert multiply_dense(p, ident) == p
        assert multiply_dense(ident, p) == p


class TestDistributionRecovery:
    def test_roundtrip(self, rng):
        for _ in range(10):
            sp = random_subpermutation(8, 10, 5, rng)
            assert subpermutation_from_distribution(sp.distribution_matrix()) == sp

    def test_invalid_distribution_rejected(self):
        bad = np.array([[0, 2], [0, 0]], dtype=np.int64)
        with pytest.raises(ValueError):
            subpermutation_from_distribution(bad)

    def test_is_distribution_matrix(self, rng):
        sp = random_subpermutation(7, 7, 4, rng)
        assert is_distribution_matrix(sp.distribution_matrix())
        assert not is_distribution_matrix(np.array([[1, 0], [0, 0]]))

    def test_empty_density_is_valid(self):
        # A 1 x 4 distribution matrix has a 0 x 3 density: no points at all.
        dist = np.zeros((1, 4), dtype=np.int64)
        assert is_distribution_matrix(dist)
        assert subpermutation_from_distribution(dist) == SubPermutation.empty(0, 3)


class TestMultiplyDense:
    def test_product_is_permutation_when_inputs_are(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 25))
            pa, pb = random_permutation(n, rng), random_permutation(n, rng)
            result = multiply_dense(pa, pb)
            assert isinstance(result, Permutation)
            result.validate()

    def test_product_respects_definition(self, rng):
        # Check the defining min-plus identity on the distribution matrices.
        n = 12
        pa, pb = random_permutation(n, rng), random_permutation(n, rng)
        pc = multiply_dense(pa, pb)
        da, db, dc = (
            pa.distribution_matrix(),
            pb.distribution_matrix(),
            pc.distribution_matrix(),
        )
        expected = minplus_distribution_product(da, db)
        assert np.array_equal(dc, expected)

    def test_subpermutation_nonzeros_bound(self, rng):
        pa = random_subpermutation(9, 7, 4, rng)
        pb = random_subpermutation(7, 11, 5, rng)
        pc = multiply_dense(pa, pb)
        assert pc.shape == (9, 11)
        assert pc.num_nonzeros <= min(pa.num_nonzeros, pb.num_nonzeros)

    def test_inner_dimension_mismatch(self, rng):
        pa = random_subpermutation(4, 5, 2, rng)
        pb = random_subpermutation(6, 4, 2, rng)
        with pytest.raises(ValueError):
            multiply_dense(pa, pb)

    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [((0, 3), (3, 0)), ((0, 3), (3, 2)), ((2, 3), (3, 0)), ((0, 0), (0, 0))],
    )
    def test_empty_products(self, shape_a, shape_b):
        pa, pb = SubPermutation.empty(*shape_a), SubPermutation.empty(*shape_b)
        product = multiply_dense(pa, pb)
        assert product.shape == (shape_a[0], shape_b[1])
        assert product.num_nonzeros == 0
        assert product == multiply(pa, pb)


def _permutation_stack(num, m, rng):
    return np.stack([rng.permutation(m) for _ in range(num)])


def _assert_batch_matches_oracle(num, m, rng):
    a, b = _permutation_stack(num, m, rng), _permutation_stack(num, m, rng)
    got = multiply_dense_batch(a, b)
    assert got.shape == a.shape
    for row_a, row_b, row_c in zip(a, b, got):
        expected = multiply_dense(Permutation(row_a), Permutation(row_b))
        assert np.array_equal(row_c, expected.row_to_col)


class TestMultiplyDenseBatch:
    def test_stack_spanning_several_chunks(self, rng):
        # 1000 leaves of m = 64 need more than one chunk of the cell cap
        # (992 leaves per chunk here), so the last chunk is a partial one.
        num, m = 1000, 64
        assert num * (m + 1) ** 2 > MINPLUS_CHUNK_CELLS
        _assert_batch_matches_oracle(num, m, rng)

    def test_single_leaf_cube_over_the_cap(self, rng):
        m = 170
        assert (m + 1) ** 3 > MINPLUS_CHUNK_CELLS
        _assert_batch_matches_oracle(2, m, rng)

    def test_invalid_stacks_rejected(self, rng):
        a = _permutation_stack(3, 5, rng)
        b = _permutation_stack(3, 5, rng)
        duplicated = a.copy()
        duplicated[1, 0] = duplicated[1, 1]
        with pytest.raises(ValueError):
            multiply_dense_batch(duplicated, b)
        with pytest.raises(ValueError):
            multiply_dense_batch(a, duplicated)
        out_of_range = a.copy()
        out_of_range[2, 3] = 5
        with pytest.raises(ValueError):
            multiply_dense_batch(out_of_range, b)
        with pytest.raises(ValueError):
            multiply_dense_batch(a, b[:, :4])
        with pytest.raises(ValueError):
            multiply_dense_batch(a[0], b[0])

    def test_empty_stacks(self):
        assert multiply_dense_batch(np.empty((0, 4)), np.empty((0, 4))).shape == (0, 4)
        assert multiply_dense_batch(np.empty((3, 0)), np.empty((3, 0))).shape == (3, 0)


@settings(max_examples=40, deadline=None)
@given(
    num=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=100_000),
)
def test_batch_matches_per_pair_oracle_property(num, m, seed):
    """Property: each row of the batched product equals multiply_dense."""
    _assert_batch_matches_oracle(num, m, np.random.default_rng(seed))
