"""Block-product reuse: patch a built value-interval matrix in place.

The service layer's indexes (:class:`repro.service.index.SemiLocalIndex`)
wrap one expensive build product.  When the indexed sequence *grows*, the
associativity of ``⊡`` means the old product is a perfectly good left
operand: relabel it into the extended rank universe, build a block product
for just the appended suffix, and multiply **once** —

    ``P(old + suffix)  =  embed(P(old))  ⊡  embed(P(suffix))``

The result is bit-identical to a from-scratch rebuild (the recomposition
only re-brackets the same product) at the cost of one suffix build plus one
multiplication instead of the whole O(n log n) recursion.  This is the patch
path behind the ``refresh`` request kind of ``repro.service.requests`` v2,
and the only ``⊡`` product of the streaming package: sliding sessions read
their leaves with the seam sweep instead (:mod:`repro.streaming.aggregator`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.seaweed import multiply
from ..lis.semilocal import MultiplyFn, SemiLocalLIS, embed_into_universe
from .aggregator import BlockProduct, _part_slots, build_block_product

__all__ = [
    "block_product_from_semilocal",
    "combine_block_products",
    "extend_value_matrix",
]


def combine_block_products(
    left: BlockProduct, right: BlockProduct, multiply_fn: MultiplyFn = multiply
) -> BlockProduct:
    """``left ⊡ right`` for adjacent runs: relabel into the union and multiply.

    Each run's keys go to their ranks in the merged key universe (strictly
    increasing — the relabelling map of the paper's §4.2).
    """
    if left.size == 0:
        return right
    if right.size == 0:
        return left
    universe, (left_slots, right_slots) = _part_slots([left, right])
    values = np.empty(universe, dtype=np.float64)
    ties = np.empty(universe, dtype=np.int64)
    for part, slots in ((left, left_slots), (right, right_slots)):
        values[slots] = part.key_values
        ties[slots] = part.key_ties
    left_embedded = embed_into_universe(left.matrix, left_slots, universe)
    right_embedded = embed_into_universe(right.matrix, right_slots, universe)
    return BlockProduct(multiply_fn(left_embedded, right_embedded), values, ties)


def block_product_from_semilocal(
    semilocal: SemiLocalLIS, values: Sequence[float], *, strict: bool = True, arrival_offset: int = 0
) -> BlockProduct:
    """Re-key a built value-interval matrix as a streaming block product.

    ``values`` must be the exact sequence the matrix was built over; the
    reconstructed keys (value, ±position) reproduce the rank universe of
    :func:`repro.lis.semilocal.rank_transform`, so the matrix can be merged
    with other block products.
    """
    if semilocal.kind != "value":
        raise ValueError(f"block products need a value-interval matrix, got kind={semilocal.kind!r}")
    values = np.asarray(values, dtype=np.float64)
    if len(values) != semilocal.length:
        raise ValueError(
            f"sequence length {len(values)} does not match the matrix length {semilocal.length}"
        )
    arrivals = arrival_offset + np.arange(len(values), dtype=np.int64)
    ties = -arrivals if strict else arrivals
    order = np.lexsort((ties, values))
    return BlockProduct(semilocal.matrix, values[order], ties[order])


def extend_value_matrix(
    semilocal: SemiLocalLIS,
    old_values: Sequence[float],
    suffix: Sequence[float],
    *,
    strict: bool = True,
) -> SemiLocalLIS:
    """``value_interval_matrix(old + suffix)`` by reusing the old product.

    Returns a new :class:`SemiLocalLIS` over the extended sequence whose
    matrix is bit-identical to a full rebuild.  ``semilocal`` must be the
    value-interval matrix of ``old_values`` built with the same ``strict``.
    """
    suffix = np.asarray(suffix, dtype=np.float64)
    old_values = np.asarray(old_values, dtype=np.float64)
    if suffix.size == 0:
        return semilocal
    old_block = block_product_from_semilocal(semilocal, old_values, strict=strict)
    arrivals = len(old_values) + np.arange(len(suffix), dtype=np.int64)
    suffix_block = build_block_product(suffix, -arrivals if strict else arrivals)
    combined = combine_block_products(old_block, suffix_block)
    return SemiLocalLIS(matrix=combined.matrix, kind="value", length=combined.size)
