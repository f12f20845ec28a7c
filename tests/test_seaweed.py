"""Tests for the sequential seaweed multiplication (Theorems 1.1/1.2 sequential form)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Permutation,
    ScratchArena,
    SubPermutation,
    identity_permutation,
    multiply,
    multiply_dense,
    multiply_permutations,
    multiply_permutations_iterative,
    multiply_permutations_reference,
    random_permutation,
    random_subpermutation,
)
from repro.core import combine as combine_module
from repro.core import seaweed as seaweed_module
from repro.core.dense import multiply_dense_batch
from repro.core.seaweed import (
    block_boundaries,
    pad_to_permutations,
    split_into_blocks,
    strip_padding,
)
from repro.obs.metrics import get_registry


def multiply_sub(pa, pb, engine=multiply_permutations_iterative, **shape):
    """``multiply`` for sub-permutations through one engine at an explicit
    split shape (``fanin``/``base_size``), via the §4.1 padding reduction."""
    perm_a, perm_b, info = pad_to_permutations(pa, pb)
    return strip_padding(engine(perm_a, perm_b, **shape), info)


class TestSplit:
    def test_block_boundaries(self):
        bounds = block_boundaries(10, 3)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert len(bounds) == 4

    def test_split_blocks_are_permutations(self, rng):
        pa, pb = random_permutation(20, rng), random_permutation(20, rng)
        split = split_into_blocks(pa, pb, 4)
        assert split.num_blocks == 4
        total = 0
        for a_blk, b_blk, rmap, cmap in zip(
            split.a_blocks, split.b_blocks, split.row_maps, split.col_maps
        ):
            a_blk.validate()
            b_blk.validate()
            assert a_blk.size == b_blk.size == len(rmap) == len(cmap)
            total += a_blk.size
        assert total == 20

    def test_row_maps_partition_rows(self, rng):
        pa, pb = random_permutation(15, rng), random_permutation(15, rng)
        split = split_into_blocks(pa, pb, 3)
        all_rows = np.concatenate(split.row_maps)
        assert sorted(all_rows.tolist()) == list(range(15))
        all_cols = np.concatenate(split.col_maps)
        assert sorted(all_cols.tolist()) == list(range(15))


class TestMultiplyPermutations:
    def test_matches_dense_small(self, rng):
        for n in (1, 2, 3, 7, 20, 45):
            pa, pb = random_permutation(n, rng), random_permutation(n, rng)
            expected = multiply_dense(pa, pb).as_permutation()
            got = multiply_permutations_iterative(pa, pb, base_size=4)
            assert got == expected

    def test_all_fanins_agree(self, rng):
        pa, pb = random_permutation(40, rng), random_permutation(40, rng)
        reference = multiply_permutations_iterative(pa, pb, fanin=2, base_size=4)
        for fanin in (3, 4, 7, 16):
            assert multiply_permutations_iterative(pa, pb, fanin=fanin, base_size=4) == reference

    def test_identity_neutral(self, rng):
        p = random_permutation(30, rng)
        ident = identity_permutation(30)
        assert multiply_permutations_iterative(p, ident, base_size=4) == p
        assert multiply_permutations_iterative(ident, p, base_size=4) == p

    def test_associativity(self, rng):
        n = 24
        a, b, c = (random_permutation(n, rng) for _ in range(3))
        mul = multiply_permutations_iterative
        left = mul(mul(a, b, base_size=4), c, base_size=4)
        right = mul(a, mul(b, c, base_size=4), base_size=4)
        assert left == right

    def test_size_mismatch(self, rng):
        with pytest.raises(ValueError):
            multiply_permutations(random_permutation(3, rng), random_permutation(4, rng))

    def test_invalid_fanin(self, rng):
        with pytest.raises(ValueError, match="fanin must be at least 2"):
            multiply_permutations_iterative(
                random_permutation(4, rng), random_permutation(4, rng), fanin=1
            )

    def test_empty(self):
        empty = Permutation(np.empty(0, dtype=np.int64))
        assert multiply_permutations(empty, empty).size == 0


class TestPadding:
    def test_pad_produces_permutations(self, rng):
        pa = random_subpermutation(5, 8, 3, rng)
        pb = random_subpermutation(8, 6, 4, rng)
        perm_a, perm_b, info = pad_to_permutations(pa, pb)
        perm_a.validate()
        perm_b.validate()
        assert perm_a.size == perm_b.size == 8
        assert info.num_kept_rows == 3 and info.num_kept_cols == 4

    def test_pad_strip_roundtrip_matches_dense(self, rng):
        for _ in range(15):
            n1, n2, n3 = rng.integers(1, 15, size=3)
            k1 = int(rng.integers(0, min(n1, n2) + 1))
            k2 = int(rng.integers(0, min(n2, n3) + 1))
            pa = random_subpermutation(int(n1), int(n2), k1, rng)
            pb = random_subpermutation(int(n2), int(n3), k2, rng)
            perm_a, perm_b, info = pad_to_permutations(pa, pb)
            product = multiply_dense(perm_a, perm_b).as_permutation()
            stripped = strip_padding(product, info)
            assert stripped == multiply_dense(pa, pb)


class TestMultiplyGeneral:
    def test_subpermutations_match_dense(self, rng):
        for _ in range(20):
            n1, n2, n3 = rng.integers(1, 20, size=3)
            pa = random_subpermutation(int(n1), int(n2), int(rng.integers(0, min(n1, n2) + 1)), rng)
            pb = random_subpermutation(int(n2), int(n3), int(rng.integers(0, min(n2, n3) + 1)), rng)
            assert multiply_sub(pa, pb, base_size=4) == multiply_dense(pa, pb)

    def test_inner_mismatch_raises(self, rng):
        pa = random_subpermutation(4, 5, 2, rng)
        pb = random_subpermutation(6, 4, 3, rng)
        with pytest.raises(ValueError):
            multiply(pa, pb)

    def test_full_permutation_shortcut(self, rng):
        pa, pb = random_permutation(12, rng), random_permutation(12, rng)
        assert multiply(pa, pb) == multiply_permutations(pa, pb)


class TestIterativeEngine:
    """The allocation-lean engine must be bit-identical to the reference."""

    def test_engine_dispatch(self, rng):
        # The public entry point runs the iterative engine, once per call.
        pa, pb = random_permutation(200, rng), random_permutation(200, rng)
        counter = get_registry().counter("repro_multiply_total")
        before = counter.value()
        assert multiply_permutations(pa, pb) == multiply_permutations_reference(pa, pb)
        assert counter.value() - before == 1

    def test_identity_and_empty(self, rng):
        p = random_permutation(30, rng)
        ident = identity_permutation(30)
        assert multiply_permutations_iterative(p, ident) == p
        assert multiply_permutations_iterative(ident, p) == p
        empty = Permutation(np.empty(0, dtype=np.int64))
        assert multiply_permutations_iterative(empty, empty).size == 0

    def test_matches_reference_across_fanins(self, rng):
        for n in (1, 2, 3, 17, 40, 73):
            pa, pb = random_permutation(n, rng), random_permutation(n, rng)
            expected = multiply_permutations_reference(pa, pb, fanin=2, base_size=4)
            for fanin in (2, 3, 5, 8):
                got = multiply_permutations_iterative(pa, pb, fanin=fanin, base_size=4)
                assert got == expected

    def test_shared_arena_across_calls(self, rng):
        arena = ScratchArena()
        for _ in range(5):
            n = int(rng.integers(1, 60))
            pa, pb = random_permutation(n, rng), random_permutation(n, rng)
            got = multiply_permutations_iterative(pa, pb, base_size=4, arena=arena)
            assert got == multiply_permutations_reference(pa, pb, base_size=4)
        assert arena.nbytes > 0

    @pytest.mark.parametrize(
        "n, base_size, batches", [(1000, 32, [(24, 31), (8, 32)]), (300, 200, [(2, 150)])]
    )
    def test_batched_leaves_match_reference(self, rng, monkeypatch, n, base_size, batches):
        # One batched dense product per leaf size: n = 1000 at base_size 32
        # leaves blocks of 31 and 32, n = 300 at base_size 200 two of 150.
        calls = []

        def recording_batch(a, b):
            calls.append(a.shape)
            return multiply_dense_batch(a, b)

        monkeypatch.setattr(seaweed_module, "multiply_dense_batch", recording_batch)
        pa, pb = random_permutation(n, rng), random_permutation(n, rng)
        counter = get_registry().counter("repro_multiply_leaves_total")
        before = counter.value()
        got = multiply_permutations_iterative(pa, pb, base_size=base_size)
        assert sorted(calls, key=lambda shape: shape[1]) == batches
        assert counter.value() - before == sum(num for num, _ in batches)
        assert got == multiply_permutations_reference(pa, pb, base_size=base_size)

    def test_subpermutations_match_reference_engine(self, rng):
        for _ in range(25):
            n1, n2, n3 = rng.integers(1, 18, size=3)
            pa = random_subpermutation(int(n1), int(n2), int(rng.integers(0, min(n1, n2) + 1)), rng)
            pb = random_subpermutation(int(n2), int(n3), int(rng.integers(0, min(n2, n3) + 1)), rng)
            assert multiply_sub(pa, pb, base_size=4) == multiply_sub(
                pa, pb, multiply_permutations_reference, base_size=4
            )

    def test_empty_subpermutation_operands(self, rng):
        pa = SubPermutation.empty(5, 7)
        pb = random_subpermutation(7, 4, 3, rng)
        assert multiply(pa, pb) == multiply_dense(pa, pb)
        assert multiply(pb.transpose(), pa.transpose()) == multiply_dense(
            pb.transpose(), pa.transpose()
        )


class TestReferenceEngine:
    def test_reference_engine_respects_dense_table_limit(self, rng, monkeypatch):
        # A zero budget forces every reference-engine merge onto the sparse
        # color-major path of the combine engine; the product is unchanged.
        pa, pb = random_permutation(40, rng), random_permutation(40, rng)
        expected = multiply_permutations_reference(pa, pb, base_size=4)
        sparse = []
        original_init = combine_module.ColoredPointSet.__init__

        def recording_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            sparse.append(self._dense_tables is None)

        monkeypatch.setattr(combine_module, "DENSE_TABLE_LIMIT", 0)
        monkeypatch.setattr(combine_module.ColoredPointSet, "__init__", recording_init)
        assert multiply_permutations_reference(pa, pb, base_size=4) == expected
        assert sparse and all(sparse)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    fanin=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=100_000),
)
def test_multiply_matches_dense_property(n, fanin, seed):
    """Property: the recursive seaweed product equals the dense oracle."""
    rng = np.random.default_rng(seed)
    pa, pb = random_permutation(n, rng), random_permutation(n, rng)
    expected = multiply_dense(pa, pb).as_permutation()
    assert multiply_permutations_iterative(pa, pb, fanin=fanin, base_size=4) == expected


@settings(max_examples=30, deadline=None)
@given(
    dims=st.tuples(
        st.integers(min_value=0, max_value=16),
        st.integers(min_value=0, max_value=16),
        st.integers(min_value=0, max_value=16),
    ),
    seed=st.integers(min_value=0, max_value=100_000),
)
def test_subpermutation_multiply_property(dims, seed):
    """Property: Theorem 1.2 padding reduction is exact for any shapes."""
    n1, n2, n3 = dims
    rng = np.random.default_rng(seed)
    pa = random_subpermutation(n1, n2, int(rng.integers(0, min(n1, n2) + 1)), rng)
    pb = random_subpermutation(n2, n3, int(rng.integers(0, min(n2, n3) + 1)), rng)
    assert multiply_sub(pa, pb, base_size=4) == multiply_dense(pa, pb)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=48),
    fanin=st.integers(min_value=2, max_value=8),
    base_size=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=100_000),
)
def test_iterative_engine_bit_identity_property(n, fanin, base_size, seed):
    """Property: the iterative engine equals the retained recursive oracle
    for every fan-in and crossover (full-permutation shapes)."""
    rng = np.random.default_rng(seed)
    pa, pb = random_permutation(n, rng), random_permutation(n, rng)
    expected = multiply_permutations_reference(pa, pb, fanin=fanin, base_size=base_size)
    got = multiply_permutations_iterative(pa, pb, fanin=fanin, base_size=base_size)
    assert got == expected


@settings(max_examples=30, deadline=None)
@given(
    dims=st.tuples(
        st.integers(min_value=0, max_value=14),
        st.integers(min_value=0, max_value=14),
        st.integers(min_value=0, max_value=14),
    ),
    fanin=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=100_000),
)
def test_iterative_engine_subpermutation_identity_property(dims, fanin, seed):
    """Property: engine bit-identity holds through the §4.1 padding reduction
    (rectangular, empty and sub-permutation shapes)."""
    n1, n2, n3 = dims
    rng = np.random.default_rng(seed)
    pa = random_subpermutation(n1, n2, int(rng.integers(0, min(n1, n2) + 1)), rng)
    pb = random_subpermutation(n2, n3, int(rng.integers(0, min(n2, n3) + 1)), rng)
    iterative = multiply_sub(pa, pb, fanin=fanin, base_size=4)
    reference = multiply_sub(pa, pb, multiply_permutations_reference, fanin=fanin, base_size=4)
    assert iterative == reference == multiply(pa, pb) == multiply_dense(pa, pb)
