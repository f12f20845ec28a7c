"""Theorem 1.2: subunit-Monge multiplication of sub-permutation matrices.

The reduction of Section 4.1: delete zero rows of ``P_A`` / zero columns of
``P_B``, pad both operands to full ``n2 x n2`` permutation matrices with
O(1)-round prefix sums and sorting, multiply with the Theorem 1.1 algorithm,
and strip the padding from the product.
"""

from __future__ import annotations

from typing import Optional

from ..core.permutation import SubPermutation
from ..core.seaweed import pad_to_permutations, strip_padding
from ..mpc.cluster import MPCCluster, SORT_ROUNDS
from .constant_round import MongeMPCConfig, mpc_multiply

__all__ = ["mpc_multiply_subpermutation"]


def mpc_multiply_subpermutation(
    cluster: MPCCluster,
    pa: SubPermutation,
    pb: SubPermutation,
    config: Optional[MongeMPCConfig] = None,
) -> SubPermutation:
    """``P_A ⊡ P_B`` for sub-permutation matrices in O(1) rounds (Theorem 1.2)."""
    if pa.n_cols != pb.n_rows:
        raise ValueError(f"inner dimensions do not match: {pa.shape} x {pb.shape}")
    if (
        pa.n_rows == pa.n_cols == pb.n_rows == pb.n_cols
        and pa.is_full_permutation()
        and pb.is_full_permutation()
    ):
        return mpc_multiply(cluster, pa.as_permutation(), pb.as_permutation(), config)

    n2 = pa.n_cols
    machine_load = max(1, (2 * n2) // max(1, cluster.num_machines) + 1)
    # Padding: mark empty rows/columns (prefix sums) and shift the existing
    # entries — O(1) rounds (paper §4.1 uses one prefix sum and one sort).
    cluster.charge_rounds(
        SORT_ROUNDS, "pad:sort", words_per_round=2 * n2, max_load=machine_load, phase="pad"
    )
    cluster.charge_round("pad:prefix-sum", words=2 * n2, max_load=machine_load, phase="pad")
    perm_a, perm_b, info = pad_to_permutations(pa, pb)

    product = mpc_multiply(cluster, perm_a, perm_b, config)

    # Stripping the padding: drop the upper rows / right columns and route the
    # surviving points back to the original coordinates — one round.
    cluster.charge_round("pad:strip", words=n2, max_load=machine_load, phase="pad")
    return strip_padding(product, info)
