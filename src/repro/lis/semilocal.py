"""Semi-local LIS via (sub)unit-Monge matrix multiplication.

This is the sequential form of the decomposition behind Theorem 1.3 and
Corollaries 1.3.2/1.3.3 of the paper: the LIS problem decomposes into O(n)
subunit-Monge products along a divide-and-conquer tree.

Two symmetric semi-local objects are built, both represented as a
sub-permutation matrix ``P`` whose distribution matrix ``K = PΣ`` encodes LIS
values (the correspondence ``score = span - K`` of Tiskin's framework):

* **value-interval matrix** (``kind='value'``): split the sequence by
  *position*, index the matrix by *value ranks*.  ``K(x, y)`` gives the LIS of
  the elements whose rank lies in ``[x, y)`` as ``(y - x) - K(x, y)``.
* **subsegment matrix** (``kind='position'``): split the sequence by *value*,
  index the matrix by *positions*.  ``K(i, j)`` gives the LIS of the
  subsegment ``A[i:j]`` as ``(j - i) - K(i, j)`` — the semi-local LIS of
  Corollary 1.3.2.

Both use the same combine: if a block is split into a "first" part ``F`` and a
"second" part ``S`` (by position for the value variant, by value for the
position variant), the block's score satisfies

    ``T_block(x, y) = max_v ( T_F(x, v) + T_S(v, y) )``

which under ``K = span - T`` is exactly the (min,+) product, i.e. ``⊡`` of the
embedded sub-permutation matrices.  Every block keeps its matrix over its own
compacted index universe ("relabeling" in the paper / CHS23), so the total
size per divide-and-conquer level is O(n).

Blocks of at most :data:`DENSE_BLOCK_SIZE` elements are leaves.  A build
splits its blocks down to leaves, combs every leaf at once with Tiskin's
seaweed combing (:func:`comb_block_matrices`, one NumPy step per
anti-diagonal across all leaves), and multiplies the halves back up with
``⊡`` (:func:`build_block_matrices`).  A build of ``n <= DENSE_BLOCK_SIZE``
elements is a single comb with no product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.combine import ColoredPointSet
from ..core.permutation import SubPermutation
from ..core.seaweed import multiply

__all__ = [
    "rank_transform",
    "embed_into_universe",
    "validate_intervals",
    "comb_block_matrices",
    "build_block_matrices",
    "SemiLocalLIS",
    "value_interval_matrix",
    "subsegment_matrix",
    "lis_length_seaweed",
]

MultiplyFn = Callable[[SubPermutation, SubPermutation], SubPermutation]


def rank_transform(sequence: Sequence[float], *, strict: bool = True) -> np.ndarray:
    """Map a sequence to a permutation of ``0..n-1`` preserving the LIS.

    For ``strict=True`` equal values receive decreasing ranks (so that two
    equal values can never both appear in an increasing subsequence of the
    ranks); for ``strict=False`` they receive increasing ranks, which turns
    the longest *non-decreasing* subsequence of the input into the longest
    strictly increasing subsequence of the ranks.
    """
    values = np.asarray(sequence)
    n = len(values)
    positions = np.arange(n)
    if strict:
        order = np.lexsort((-positions, values))
    else:
        order = np.lexsort((positions, values))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64)
    return ranks


def embed_into_universe(
    matrix: SubPermutation, slots: np.ndarray, universe: int
) -> SubPermutation:
    """Expand a compacted block matrix into a larger index universe.

    ``slots[t]`` is the parent coordinate of the block's ``t``-th coordinate
    (``slots`` must be strictly increasing).  Block points are re-indexed
    through ``slots``; every parent coordinate not present in ``slots``
    receives a diagonal point, which encodes "this value/position does not
    occur in the block, so it contributes span 1 and score 0" — the padding
    ("relabeling") step of the paper's Theorem 1.3 proof.
    """
    slots = np.asarray(slots, dtype=np.int64)
    if matrix.n_rows != len(slots) or matrix.n_cols != len(slots):
        raise ValueError("slots must have one entry per block coordinate")
    rows, cols = matrix.points()
    mapped_rows = slots[rows]
    mapped_cols = slots[cols]
    # Complement of the occupied slots via boolean-mask scatter (this sits on
    # the streaming hot path; the old setdiff1d sorted the universe per call).
    occupied = np.zeros(universe, dtype=bool)
    occupied[slots] = True
    missing = np.flatnonzero(~occupied)
    all_rows = np.concatenate([mapped_rows, missing])
    all_cols = np.concatenate([mapped_cols, missing])
    return SubPermutation.from_points(all_rows, all_cols, universe, universe, validate=False)


def validate_intervals(
    i: np.ndarray, j: np.ndarray, upper: int, what: str = "interval"
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised bounds check for batches of half-open query windows.

    Every window must satisfy ``0 <= i <= j <= upper``.  Raises a
    :class:`ValueError` naming the first offending window — without this,
    negative indices would silently wrap through NumPy fancy indexing and
    return a plausible-looking wrong answer.  Returns the validated arrays as
    ``int64`` (shapes must match or broadcast to each other).
    """
    i = np.atleast_1d(np.asarray(i, dtype=np.int64))
    j = np.atleast_1d(np.asarray(j, dtype=np.int64))
    if i.shape != j.shape:
        try:
            i, j = np.broadcast_arrays(i, j)
            i, j = np.ascontiguousarray(i), np.ascontiguousarray(j)
        except ValueError:
            raise ValueError(
                f"{what} endpoint arrays have incompatible shapes {i.shape} and {j.shape}"
            ) from None
    bad = (i < 0) | (j > upper) | (i > j)
    if np.any(bad):
        first = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"invalid {what} ({int(i[first])}, {int(j[first])}) at batch position "
            f"{first}: windows must satisfy 0 <= i <= j <= {upper}"
        )
    return i, j


#: Leaf size of the semi-local build: blocks of at most this many elements are
#: combed, larger ones are halved and their halves multiplied with ``⊡``.  A
#: sweep of ``value_interval_matrix`` and ``subsegment_matrix`` on random
#: permutations read 36.7 / 26.5 / 18.1 / 11.8 / 11.7 / 11.8 ms at n = 1024,
#: 90.1 / 64.7 / 48.3 / 33.4 / 24.1 / 21.4 ms at n = 2048 and 185.3 / 144.4 /
#: 102.2 / 90.3 / 58.2 / 46.8 ms at n = 4096 for leaf sizes 128 / 256 / 512 /
#: 1024 / 2048 / 4096 (every leaf of at least n is the same single comb).
DENSE_BLOCK_SIZE = 4096


def comb_block_matrices(blocks: Sequence[np.ndarray]) -> List[SubPermutation]:
    """The block matrices of a stack of blocks, by one batched seaweed comb.

    ``blocks[b]`` is a permutation of ``0..m_b-1``: block ``b``'s compacted
    index coordinates in split order.  Its LIS over the index range
    ``[x, y)`` is the LCS of the block with the index string ``x..y-1``, so
    the block's matrix is the string-substring part of Tiskin's seaweed
    matrix: comb the grid with one row per split position ``r`` and one
    column per index ``v``, matching at ``(r, blocks[b][r])``, and read off
    the seaweeds that enter at the top edge and leave at the bottom edge
    (top column ``s`` to bottom column ``t`` is the point ``(s, t)``).

    Every block is padded to the largest size ``L`` with rows and columns
    that never match; each seaweed passes through them unchanged.  Cells on
    one anti-diagonal are independent, so each NumPy step combs one
    anti-diagonal of every block at once: ``2L - 1`` steps in all.  The
    seaweed entering row ``r`` from the left is labelled ``L - 1 - r`` and
    the one entering column ``v`` from the top ``L + v``; two seaweeds meet
    in a cell and leave it uncrossed if the cell matches or they have
    crossed before (the horizontal label is the larger), and cross
    otherwise.
    """
    count = len(blocks)
    size = max((len(block) for block in blocks), default=0)
    dtype = np.int16 if 2 * size <= np.iinfo(np.int16).max else np.int32
    # across[k, b] holds block b's seaweed travelling along row L-1-k and
    # down[v, b] the one travelling down column v.  Row-major, the cells of
    # one anti-diagonal are then one contiguous run of each flat view.
    across = np.repeat(np.arange(size, dtype=dtype)[:, None], count, axis=1)
    down = np.repeat(np.arange(size, 2 * size, dtype=dtype)[:, None], count, axis=1)
    flat_across, flat_down = across.reshape(-1), down.reshape(-1)
    # Every row of a block matches once (padding rows never): the flat
    # position of each match in ``flat_across``, grouped by anti-diagonal.
    diagonals, positions = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for b, block in enumerate(blocks):
        rows = np.arange(len(block), dtype=np.int64)
        diagonals.append(np.asarray(block, dtype=np.int64) + rows)
        positions.append((size - 1 - rows) * count + b)
    diagonal_of = np.concatenate(diagonals)
    by_diagonal = np.argsort(diagonal_of, kind="stable")
    match_at = np.concatenate(positions)[by_diagonal]
    match_bounds = np.searchsorted(diagonal_of[by_diagonal], np.arange(2 * size)).tolist()
    # Anti-diagonal d covers rows max(0, d-L+1)..min(d, L-1): its run starts
    # at flat row L-1-min(d, L-1) of across and at column d-min(d, L-1) of down.
    steps = np.arange(2 * size - 1)
    top_row = np.minimum(steps, size - 1)
    starts = ((size - 1 - top_row) * count).tolist()
    columns = ((steps - top_row) * count).tolist()
    widths = ((top_row - np.maximum(0, steps - size + 1) + 1) * count).tolist()
    uncrossed = np.empty(size * count, dtype=bool)
    held = np.empty(size * count, dtype=dtype)
    for start, column, width, first, stop in zip(
        starts, columns, widths, match_bounds, match_bounds[1:]
    ):
        horizontal = flat_across[start : start + width]
        vertical = flat_down[column : column + width]
        kept = held[:width]
        if first == stop:
            # No match on this anti-diagonal: each pair leaves sorted, the
            # smaller label travelling on along the row.
            np.minimum(horizontal, vertical, out=kept)
            np.maximum(horizontal, vertical, out=vertical)
            horizontal[...] = kept
            continue
        swap = np.greater(horizontal, vertical, out=uncrossed[start : start + width])
        uncrossed[match_at[first:stop]] = True
        np.copyto(kept, horizontal)
        np.copyto(horizontal, vertical, where=swap)
        np.copyto(vertical, kept, where=swap)
    matrices = []
    for b, block in enumerate(blocks):
        m = len(block)
        ends = down[:m, b].astype(np.int64)
        from_top = np.flatnonzero(ends >= size)
        matrices.append(
            SubPermutation.from_points(ends[from_top] - size, from_top, m, m, validate=False)
        )
    return matrices


def build_block_matrices(
    roots: Sequence[Tuple[np.ndarray, np.ndarray]],
    multiply_fn: MultiplyFn = multiply,
    dense_block_size: int = DENSE_BLOCK_SIZE,
) -> List[SubPermutation]:
    """The block matrices of independent blocks, with one comb for all leaves.

    Each root is a ``(split_coords, index_coords)`` pair with distinct index
    coordinates; its matrix is over the block's *compacted* index universe
    (coordinate ``t`` is the ``t``-th smallest index value of the block).
    The forest is built in three phases:

    1. split every root top-down with an explicit worklist: a node is a run
       of its root's elements in split order, halved until it holds at most
       ``dense_block_size``;
    2. comb every leaf of every root in one :func:`comb_block_matrices` call;
    3. multiply bottom-up: each internal node embeds its two halves into its
       own universe (:func:`embed_into_universe`) and multiplies them with
       ``multiply_fn``.
    """
    leaf_cap = max(1, int(dense_block_size))
    # Node nid holds the index coordinates of its run, in split order.
    runs: List[np.ndarray] = []
    for split_coords, index_coords in roots:
        order = np.argsort(split_coords, kind="stable")
        runs.append(np.asarray(index_coords)[order])
    halves: List[Optional[Tuple[int, int]]] = [None] * len(runs)
    leaves: List[int] = []
    pending = list(range(len(runs)))
    while pending:
        nid = pending.pop()
        run = runs[nid]
        if len(run) <= leaf_cap:
            leaves.append(nid)
            continue
        mid = len(run) // 2
        halves[nid] = (len(runs), len(runs) + 1)
        pending.extend(halves[nid])
        runs.extend((run[:mid], run[mid:]))
        halves.extend((None, None))

    matrices: List[Optional[SubPermutation]] = [None] * len(runs)
    compacted = []
    for nid in leaves:
        ranks = np.empty(len(runs[nid]), dtype=np.int64)
        ranks[np.argsort(runs[nid])] = np.arange(len(ranks), dtype=np.int64)
        compacted.append(ranks)
    for nid, matrix in zip(leaves, comb_block_matrices(compacted)):
        matrices[nid] = matrix

    # Halves are created after their parent, so reverse creation order
    # multiplies every node after both of its halves.
    for nid in range(len(runs) - 1, -1, -1):
        if halves[nid] is None:
            continue
        universe = np.sort(runs[nid])
        embedded = []
        for half in halves[nid]:
            slots = np.searchsorted(universe, np.sort(runs[half]))
            embedded.append(embed_into_universe(matrices[half], slots, len(universe)))
            matrices[half] = None
        matrices[nid] = multiply_fn(*embedded)
    return matrices[: len(roots)]


@dataclass
class SemiLocalLIS:
    """A semi-local LIS object backed by a sub-permutation matrix.

    Attributes
    ----------
    matrix:
        The ``n x n`` sub-permutation whose distribution matrix encodes the
        scores.
    kind:
        ``'value'`` (matrix indexed by value ranks) or ``'position'`` (matrix
        indexed by sequence positions).
    length:
        The sequence length ``n``.
    """

    matrix: SubPermutation
    kind: str
    length: int
    _point_set: Optional[ColoredPointSet] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def _points(self) -> ColoredPointSet:
        """The dominance-count structure, built on first use.

        A caller that only reads :meth:`lis_length` never pays for it.
        """
        if self._point_set is None:
            rows, cols = self.matrix.points()
            colors = np.zeros(len(rows), dtype=np.int64)
            self._point_set = ColoredPointSet(
                rows, cols, colors, 1, self.matrix.n_rows, self.matrix.n_cols
            )
        return self._point_set

    # -------------------------------------------------------------- queries
    def distribution(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorised evaluation of ``K(x, y) = PΣ(x, y)``."""
        x = np.atleast_1d(np.asarray(x, dtype=np.int64))
        y = np.atleast_1d(np.asarray(y, dtype=np.int64))
        return self._points.sigma(x, y)

    def score(self, x, y) -> np.ndarray:
        """Semi-local LIS score for interval(s) ``[x, y)`` (vectorised)."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=np.int64))
        y_arr = np.atleast_1d(np.asarray(y, dtype=np.int64))
        span = y_arr - x_arr
        values = span - self.distribution(x_arr, y_arr)
        values = np.where(span <= 0, 0, values)
        if np.isscalar(x) and np.isscalar(y):
            return int(values[0])
        return values

    def lis_length(self) -> int:
        """The global LIS length of the underlying sequence."""
        return self.length - self.matrix.num_nonzeros

    @property
    def nbytes(self) -> int:
        """Resident bytes of the matrix plus its query structure (cache sizing).

        Builds the query structure if no query has yet: an index is sized
        as it will be served.
        """
        return int(self.matrix.row_to_col.nbytes) + int(self._points.nbytes)

    # Batch queries -----------------------------------------------------------
    def query_rank_intervals(self, x, y) -> np.ndarray:
        """Vectorised :meth:`query_rank_interval` over batches of windows.

        One call answers the whole batch through the dominance-count
        structure of the underlying :class:`ColoredPointSet`; invalid windows
        (negative, reversed or past the universe) raise :class:`ValueError`
        instead of wrapping.
        """
        if self.kind != "value":
            raise ValueError("rank-interval queries need kind='value'")
        x, y = validate_intervals(x, y, self.length, what="rank interval")
        return self.score(x, y)

    def query_substrings(self, i, j) -> np.ndarray:
        """Vectorised :meth:`query_substring` over batches of windows."""
        if self.kind != "position":
            raise ValueError("substring queries need kind='position'")
        i, j = validate_intervals(i, j, self.length, what="substring window")
        return self.score(i, j)

    # Convenience aliases -----------------------------------------------------
    def query_rank_interval(self, x: int, y: int) -> int:
        """LIS using only elements whose rank is in ``[x, y)`` (value kind)."""
        return int(self.query_rank_intervals(x, y)[0])

    def query_substring(self, i: int, j: int) -> int:
        """LIS of the subsegment ``A[i:j]`` (position kind, Corollary 1.3.2)."""
        return int(self.query_substrings(i, j)[0])


def value_interval_matrix(
    sequence: Sequence[float],
    *,
    strict: bool = True,
    dense_block_size: int = DENSE_BLOCK_SIZE,
) -> SemiLocalLIS:
    """Semi-local LIS matrix indexed by value ranks (split by position)."""
    ranks = rank_transform(sequence, strict=strict)
    positions = np.arange(len(ranks), dtype=np.int64)
    [matrix] = build_block_matrices([(positions, ranks)], multiply, dense_block_size)
    return SemiLocalLIS(matrix=matrix, kind="value", length=len(ranks))


def subsegment_matrix(
    sequence: Sequence[float],
    *,
    strict: bool = True,
    dense_block_size: int = DENSE_BLOCK_SIZE,
) -> SemiLocalLIS:
    """Semi-local LIS matrix indexed by positions (split by value).

    Supports ``query_substring(i, j)`` — the semi-local LIS of
    Corollary 1.3.2.
    """
    ranks = rank_transform(sequence, strict=strict)
    positions = np.arange(len(ranks), dtype=np.int64)
    [matrix] = build_block_matrices([(ranks, positions)], multiply, dense_block_size)
    return SemiLocalLIS(matrix=matrix, kind="position", length=len(ranks))


def lis_length_seaweed(sequence: Sequence[float], *, strict: bool = True) -> int:
    """LIS length computed through the seaweed decomposition (Theorem 1.3)."""
    if len(sequence) == 0:
        return 0
    return value_interval_matrix(sequence, strict=strict).lis_length()
