"""Dense (explicit) (min,+) multiplication of (sub)unit-Monge matrices.

This module is the correctness oracle for the whole library: it computes the
implicit product ``P_C = P_A ⊡ P_B`` directly from the definition

    ``PΣ_C(i, k) = min_j ( PΣ_A(i, j) + PΣ_B(j, k) )``

by materialising the distribution matrices.  Memory and time are quadratic /
cubic in ``n`` and it makes no structural assumptions whatsoever, so
:func:`multiply_dense` validates every faster implementation in
:mod:`repro.core.seaweed`, :mod:`repro.core.combine` and
:mod:`repro.mpc_monge`.  Its batched form :func:`multiply_dense_batch` runs
the same definition and checks over a stack of equal-size permutations in
int16 arithmetic; the iterative engine solves all its leaves of one size
with a single call.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .permutation import EMPTY, Permutation, SubPermutation

__all__ = [
    "minplus_distribution_product",
    "subpermutation_from_distribution",
    "multiply_dense",
    "multiply_dense_batch",
    "is_distribution_matrix",
]

#: Cell cap on the broadcast (min,+) temporaries; larger products are
#: evaluated in chunks.
MINPLUS_CHUNK_CELLS = 1 << 22


def count_dtype(bound: int) -> np.dtype:
    """int16 when it holds the counts ``0..bound``, int32 otherwise."""
    return np.dtype(np.int16 if bound <= np.iinfo(np.int16).max else np.int32)


def minplus_distribution_product(dist_a: np.ndarray, dist_b: np.ndarray) -> np.ndarray:
    """(min,+) product of two explicit distribution matrices.

    ``dist_a`` has shape ``(m+1, k+1)`` and ``dist_b`` shape ``(k+1, n+1)``;
    the result has shape ``(m+1, n+1)``.
    """
    if dist_a.shape[1] != dist_b.shape[0]:
        raise ValueError(
            f"inner dimensions do not match: {dist_a.shape} x {dist_b.shape}"
        )
    # result[i, k] = min_j dist_a[i, j] + dist_b[j, k]; vectorise over (j, k).
    rows_a, inner = dist_a.shape
    cols_b = dist_b.shape[1]
    if rows_a * inner * cols_b <= MINPLUS_CHUNK_CELLS:
        # Small enough: one broadcasted (i, j, k) tensor beats a Python loop.
        return np.min(dist_a[:, :, None] + dist_b[None, :, :], axis=1)
    out = np.empty((rows_a, cols_b), dtype=np.int64)
    for i in range(rows_a):
        out[i, :] = np.min(dist_a[i, :][:, None] + dist_b, axis=0)
    return out


def subpermutation_from_distribution(dist: np.ndarray) -> SubPermutation:
    """Recover the implicit sub-permutation from an explicit distribution matrix.

    The density of a distribution matrix ``D`` at cell ``(r, c)`` (half-integer
    position ``(r + 1/2, c + 1/2)``) is

        ``P(r, c) = D(r, c+1) - D(r, c) - D(r+1, c+1) + D(r+1, c)``

    which must be 0 or 1 for a valid (sub)unit-Monge matrix.
    """
    density = dist[:-1, 1:] - dist[:-1, :-1] - dist[1:, 1:] + dist[1:, :-1]
    if density.size and (density.min() < 0 or density.max() > 1):
        raise ValueError("matrix is not the distribution matrix of a 0/1 matrix")
    rows, cols = np.nonzero(density)
    n_rows = dist.shape[0] - 1
    n_cols = dist.shape[1] - 1
    return SubPermutation.from_points(rows, cols, n_rows, n_cols)


def is_distribution_matrix(dist: np.ndarray) -> bool:
    """Check whether ``dist`` is the distribution matrix of a sub-permutation."""
    if dist.ndim != 2:
        return False
    # Boundary conditions of the paper's convention.
    if np.any(dist[-1, :] != 0) or np.any(dist[:, 0] != 0):
        return False
    density = dist[:-1, 1:] - dist[:-1, :-1] - dist[1:, 1:] + dist[1:, :-1]
    if density.size and (density.min() < 0 or density.max() > 1):
        return False
    if np.any(density.sum(axis=0) > 1) or np.any(density.sum(axis=1) > 1):
        return False
    return True


def multiply_dense(pa: SubPermutation, pb: SubPermutation) -> SubPermutation:
    """Ground-truth implicit (sub)unit-Monge multiplication ``P_A ⊡ P_B``.

    Both operands may be rectangular: ``pa`` is ``n1 x n2`` and ``pb`` is
    ``n2 x n3``; the result is ``n1 x n3``.  Cubic time, quadratic memory.
    """
    if pa.n_cols != pb.n_rows:
        raise ValueError(
            f"inner dimensions do not match: {pa.shape} x {pb.shape}"
        )
    dist_c = minplus_distribution_product(
        pa.distribution_matrix(), pb.distribution_matrix()
    )
    result = subpermutation_from_distribution(dist_c)
    if pa.is_full_permutation() and pb.is_full_permutation():
        return result.as_permutation()
    return result


def _distribution_stack(perms: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``out[l]`` is the distribution matrix of the permutation ``perms[l]``."""
    num, m = perms.shape
    dist = np.zeros((num, m + 1, m + 1), dtype=dtype)
    # Column prefix of row r is [perms[l, r] < j]; then suffix-sum the rows.
    dist[:, :m, :] = perms[:, :, None] < np.arange(m + 1)
    suffix = dist[:, ::-1, :]
    np.cumsum(suffix, axis=1, out=suffix)
    return dist


def multiply_dense_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[l] ⊡ b[l]`` for two ``(L, m)`` stacks of permutation row maps.

    Returns the ``(L, m)`` product row maps, bit-identical to
    :func:`multiply_dense` on each pair and with its checks.  The (min,+)
    products run in int16 (values are at most ``2m``), one broadcast per
    inner index over chunks of leaves whose temporaries stay within
    :data:`MINPLUS_CHUNK_CELLS` cells.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"expected two equal (L, m) stacks, got {a.shape} and {b.shape}")
    num, m = a.shape
    ramp = np.broadcast_to(np.arange(m), a.shape)
    if any(not np.array_equal(np.sort(stack, axis=1), ramp) for stack in (a, b)):
        raise ValueError("every row of a stack must be a permutation of range(m)")
    out = np.empty((num, m), dtype=np.int64)
    if m == 0:
        return out
    dtype, side = count_dtype(2 * m), m + 1
    step = max(1, MINPLUS_CHUNK_CELLS // (side * side))
    for lo in range(0, num, step):
        dist_a = _distribution_stack(a[lo:lo + step], dtype)
        dist_b = _distribution_stack(b[lo:lo + step], dtype)
        dist_c = dist_a[:, :, 0, None] + dist_b[:, None, 0, :]
        term = np.empty_like(dist_c)
        for j in range(1, side):  # dist_c[l, i, k] = min_j dist_a[l, i, j] + dist_b[l, j, k]
            np.add(dist_a[:, :, j, None], dist_b[:, None, j, :], out=term)
            np.minimum(dist_c, term, out=dist_c)
        density = (
            dist_c[:, :-1, 1:] - dist_c[:, :-1, :-1] - dist_c[:, 1:, 1:] + dist_c[:, 1:, :-1]
        )
        if density.min() < 0 or density.max() > 1:
            raise ValueError("product is not the distribution matrix of a 0/1 matrix")
        if np.any(density.sum(axis=2) != 1) or np.any(density.sum(axis=1) != 1):
            raise ValueError("product is not a full permutation matrix")
        out[lo:lo + step] = density.argmax(axis=2)
    return out
