"""Theorem 1.3: exact LIS in O(log n) rounds of the MPC model.

The algorithm follows the standard decomposition (paper §4.2 / CHS23 §4):

1. The input sequence is rank-transformed and distributed across the machines
   in contiguous blocks of at most ``s`` elements.
2. Every machine builds the *value-interval* semi-local LIS matrix of its own
   block locally (sequential seaweed construction, no communication).
3. The blocks are merged along a binary tree: at each level adjacent blocks
   relabel their value universes into the union universe (O(1) rounds of
   sorting — the "relabel" step the paper highlights) and their matrices are
   multiplied with the MPC subunit-Monge multiplication of Theorem 1.2
   (O(1) rounds with the constant-round algorithm), so each level costs O(1)
   rounds and the whole computation costs ``O(log n)`` rounds.

The LIS length is ``n`` minus the number of nonzeros of the final matrix, and
the final matrix also answers semi-local (value-interval) queries —
Corollary 1.3.2 is obtained by running the same pipeline on the transposed
construction (:func:`mpc_semilocal_lis`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.permutation import SubPermutation
from ..core.seaweed import multiply
from ..mpc.cluster import MPCCluster, SORT_ROUNDS
from ..mpc_monge.constant_round import MongeMPCConfig
from ..mpc_monge.subpermutation import mpc_multiply_subpermutation
from ..mpc_monge.warmup import warmup_config
from .semilocal import SemiLocalLIS, _build_recursive, embed_into_universe, rank_transform

__all__ = ["MPCLISResult", "mpc_lis_length", "mpc_lis_matrix", "mpc_semilocal_lis"]


@dataclass
class MPCLISResult:
    """Result of an MPC LIS computation."""

    length: int
    semilocal: SemiLocalLIS
    num_blocks: int
    merge_levels: int

    def __int__(self) -> int:  # pragma: no cover - convenience
        return self.length


def _local_block_matrix(coords_split: np.ndarray, coords_index: np.ndarray) -> SubPermutation:
    """Build a block's semi-local matrix on a single machine (no rounds)."""
    return _build_recursive(coords_split, coords_index, multiply)


#: Signature of the multiplication used by the merge phase: it receives the
#: cluster and the two embedded sub-permutation matrices.
MultiplyInMPC = Callable[[MPCCluster, SubPermutation, SubPermutation], SubPermutation]


def _default_merge_multiply(
    cluster: MPCCluster,
    left: SubPermutation,
    right: SubPermutation,
    config: Optional[MongeMPCConfig] = None,
) -> SubPermutation:
    """The Theorem 1.2 multiplier, module-level so fork-group tasks pickle."""
    return mpc_multiply_subpermutation(cluster, left, right, config)


def _merge_pair(
    cluster: MPCCluster,
    left: Tuple[SubPermutation, np.ndarray],
    right: Tuple[SubPermutation, np.ndarray],
    multiply_fn: MultiplyInMPC,
) -> Tuple[SubPermutation, np.ndarray]:
    """Merge two adjacent blocks: relabel into the union universe and multiply."""
    left_mat, left_values = left
    right_mat, right_values = right
    union_values = np.sort(np.concatenate([left_values, right_values]))
    universe = len(union_values)
    left_slots = np.searchsorted(union_values, left_values)
    right_slots = np.searchsorted(union_values, right_values)
    # Relabelling = one O(1)-round sort plus one routing round (paper §4.2).
    load = math.ceil(2 * universe / max(1, cluster.num_machines)) + 1
    cluster.charge_rounds(
        SORT_ROUNDS, "lis:relabel", words_per_round=2 * universe, max_load=load, phase="lis-merge"
    )
    left_embedded = embed_into_universe(left_mat, left_slots, universe)
    right_embedded = embed_into_universe(right_mat, right_slots, universe)
    product = multiply_fn(cluster, left_embedded, right_embedded)
    return product, union_values


def mpc_lis_matrix(
    cluster: MPCCluster,
    sequence: Sequence[float],
    config: Optional[MongeMPCConfig] = None,
    *,
    strict: bool = True,
    kind: str = "value",
    multiply_fn: Optional[MultiplyInMPC] = None,
) -> MPCLISResult:
    """Compute the semi-local LIS matrix of ``sequence`` in the MPC model.

    ``kind='value'`` builds the value-interval matrix (used for the plain LIS
    length, Theorem 1.3); ``kind='position'`` builds the subsegment matrix
    (semi-local LIS, Corollary 1.3.2).  ``multiply_fn`` overrides the
    subunit-Monge multiplication used by the merge phase (the prior-work
    baselines plug their own multipliers in here).
    """
    if multiply_fn is None:
        # A partial of a module-level function (not a closure) so the process
        # backend can ship merge tasks to worker processes.
        multiply_fn = functools.partial(_default_merge_multiply, config=config)

    ranks = rank_transform(sequence, strict=strict)
    n = len(ranks)
    if n == 0:
        empty = SemiLocalLIS(matrix=SubPermutation.empty(0, 0), kind=kind, length=0)
        return MPCLISResult(length=0, semilocal=empty, num_blocks=0, merge_levels=0)

    positions = np.arange(n, dtype=np.int64)
    if kind == "value":
        split_coords, index_coords = positions, ranks
    elif kind == "position":
        split_coords, index_coords = ranks, positions
    else:
        raise ValueError("kind must be 'value' or 'position'")

    # --- distribute into blocks of at most s elements ------------------------
    block_size = max(1, cluster.space_per_machine // 4)
    num_blocks = max(1, math.ceil(n / block_size))
    bounds = np.linspace(0, n, num_blocks + 1).round().astype(np.int64)

    order = np.argsort(split_coords, kind="stable")
    split_sorted = split_coords[order]
    index_sorted = index_coords[order]

    # --- local phase: every machine builds its block matrix -----------------
    blocks: List[Tuple[SubPermutation, np.ndarray]] = []
    for b in range(num_blocks):
        lo, hi = int(bounds[b]), int(bounds[b + 1])
        blk_split = split_sorted[lo:hi]
        blk_index = index_sorted[lo:hi]
        matrix = _local_block_matrix(blk_split, blk_index)
        blocks.append((matrix, np.sort(blk_index)))
        cluster.stats.record_load(3 * (hi - lo))
    cluster.stats.local_operations += n

    # --- merge phase: binary tree of O(1)-round merges -----------------------
    # Every level is one parallel batch: the pairs are independent fork-groups
    # that the execution backend runs concurrently (threads/processes), with
    # max-rounds / sum-words parallel-composition accounting at the join.
    merge_levels = 0
    while len(blocks) > 1:
        merge_levels += 1
        pairs = [(blocks[i], blocks[i + 1]) for i in range(0, len(blocks) - 1, 2)]
        leftovers = [blocks[-1]] if len(blocks) % 2 == 1 else []
        next_blocks: List[Tuple[SubPermutation, np.ndarray]] = cluster.run_forked(
            [(_merge_pair, (left, right, multiply_fn)) for left, right in pairs],
            label=f"lis-level{merge_levels}",
        )
        next_blocks.extend(leftovers)
        blocks = next_blocks

    final_matrix, _ = blocks[0]
    semilocal = SemiLocalLIS(matrix=final_matrix, kind=kind, length=n)
    return MPCLISResult(
        length=semilocal.lis_length(),
        semilocal=semilocal,
        num_blocks=num_blocks,
        merge_levels=merge_levels,
    )


def mpc_lis_length(
    cluster: MPCCluster,
    sequence: Sequence[float],
    config: Optional[MongeMPCConfig] = None,
    *,
    strict: bool = True,
) -> int:
    """Exact LIS length in O(log n) MPC rounds (Theorem 1.3)."""
    return mpc_lis_matrix(cluster, sequence, config, strict=strict, kind="value").length


def mpc_semilocal_lis(
    cluster: MPCCluster,
    sequence: Sequence[float],
    config: Optional[MongeMPCConfig] = None,
    *,
    strict: bool = True,
) -> MPCLISResult:
    """Semi-local (all-subsegments) LIS in O(log n) rounds (Corollary 1.3.2)."""
    return mpc_lis_matrix(cluster, sequence, config, strict=strict, kind="position")
