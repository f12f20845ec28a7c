"""The multiway combine engine (Lemmas 3.1-3.10 of the paper).

Given the results of ``H`` column/row-block subproblems ``P_{C,1..H}``
expanded back to the parent coordinate space, the product satisfies

    ``PΣ_C(i, j) = min_{1<=q<=H} F_q(i, j)``                       (Lemma 3.2)

with ``F_q(i, j) = Σ_{x<q} PΣ_{C,x}(i, n) + PΣ_{C,q}(i, j) + Σ_{x>q} PΣ_{C,x}(0, j)``.

Because every sub-result contributes at most one point per parent row and per
parent column, the union of all sub-result points is a *colored* (sub-)
permutation.  All three families of terms above are dominance counts over that
colored point set, so ``PΣ_C`` can be evaluated at any corner with ``H``
dominance counts.  The final permutation is recovered row by row: the point of
row ``r`` (if any) sits at the unique column where
``PΣ_C(r, ·) - PΣ_C(r+1, ·)`` jumps from 0 to 1, which is located by a
vectorised binary search.  This realises exactly the characterisation of
Lemmas 3.7-3.10 (interesting points and surviving sub-result points) without
materialising the ``opt`` table.

The dominance counts come from a *block-row table*, the block decomposition
of Tiskin's semi-local framework: the points are sorted by row, and
cumulative per-color column counts are kept only at every ``B``-th point
(``B ≈ √P`` for ``P`` points), so the table has ``H·(P/B + 2)·(n + 1)``
cells instead of the ``H·(n + 1)²`` of dense distribution matrices.  A corner
``(i, j)`` reads the table at the first block boundary after its first point
with row ``>= i`` and counts the at most ``B`` points in between directly.
Where even that table would exceed :data:`BLOCK_TABLE_LIMIT` cells, a rank
tree over color-major sorted arrays answers instead, in ``O(n log n)``
words.  Either way a batch of corners is a fixed number of vectorised
passes, with no Python loop over colors or corners.

The same engine is used by the sequential seaweed reference multiplication
(:mod:`repro.core.seaweed`, with ``H = 2`` or larger fan-in), by the local
per-machine steps of the MPC algorithms (:mod:`repro.mpc_monge`) and by the
semi-local indexes (:mod:`repro.lis.semilocal`, ``H = 1``).  The iterative
engine's hot path uses the specialised staircase merge in
:mod:`repro.core.seaweed` instead; this module is its general-``H`` oracle.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .dense import count_dtype
from .permutation import SubPermutation

__all__ = [
    "ColoredPointSet",
    "combine_colored",
    "sigma_from_colored_dense",
]


class _PrefixRankTree:
    """Answers ``#{k < k0 : values[k] < threshold}`` for batches of queries.

    A binary-indexed decomposition of the value array into power-of-two blocks,
    each stored sorted; a prefix ``[0, k0)`` decomposes into O(log n) blocks.
    All queries of a batch are answered with one ``np.searchsorted`` per level
    by shifting each block into its own disjoint value range.
    """

    __slots__ = ("_levels", "_size", "_value_span")

    def __init__(self, values: np.ndarray, value_span: int) -> None:
        values = np.asarray(values, dtype=np.int64)
        self._size = len(values)
        self._value_span = int(value_span) + 2
        levels = []
        length = len(values)
        bit = 0
        while (1 << bit) <= max(length, 1):
            block = 1 << bit
            num_blocks = (length + block - 1) // block
            if num_blocks == 0:
                break
            padded = np.full(num_blocks * block, np.iinfo(np.int64).max, dtype=np.int64)
            padded[:length] = values
            blocks = np.sort(padded.reshape(num_blocks, block), axis=1)
            # Shift block t into the value range [t * span, (t+1) * span).
            shift = (np.arange(num_blocks, dtype=np.int64) * self._value_span)[:, None]
            shifted = np.where(
                blocks == np.iinfo(np.int64).max, np.iinfo(np.int64).max, blocks + shift
            )
            levels.append(shifted.ravel())
            bit += 1
        self._levels = levels

    @property
    def nbytes(self) -> int:
        """Resident bytes of the level arrays (cache-budget accounting)."""
        return sum(level.nbytes for level in self._levels)

    def prefix_count_less(self, prefix_len: np.ndarray, threshold: np.ndarray) -> np.ndarray:
        """For each query b: ``#{k < prefix_len[b] : values[k] < threshold[b]}``.

        ``prefix_len`` and ``threshold`` may be any broadcast-compatible
        shapes; the result has the broadcast shape.
        """
        prefix_len = np.asarray(prefix_len, dtype=np.int64)
        threshold = np.asarray(threshold, dtype=np.int64)
        prefix_len, threshold = np.broadcast_arrays(prefix_len, threshold)
        out = np.zeros(prefix_len.shape, dtype=np.int64)
        span = self._value_span
        clipped_threshold = np.minimum(np.maximum(threshold, 0), span - 1)
        for bit, level in enumerate(self._levels):
            block = 1 << bit
            use = (prefix_len >> bit) & 1
            start = prefix_len & ~np.int64((block << 1) - 1)
            block_idx = start >> bit
            keys = block_idx * span + clipped_threshold
            pos = np.searchsorted(level, keys, side="left")
            out += use * (pos - block_idx * block)
        return out


#: Cell budget of a point set's block-row table.  Above it the point set
#: answers from the rank tree instead, which keeps memory at O(n log n) words
#: where the table would not: the top combines of ``multiply_rounds`` and
#: ``lis_rounds`` and the indexes of long strings.
BLOCK_TABLE_LIMIT = 1 << 22


def _block_size(num_points: int) -> int:
    """Points per block of the block-row table: ``max(8, ⌊√P⌋)``.

    The table costs ``H·(P/B)·n`` cells to build and a corner costs a pass
    over ``B`` points, so ``B ≈ √P`` balances the two for readers that ask
    on the order of ``n`` corners per build, as the MPC combine's binary
    searches do.  Swept over perfbench's inputs on one pinned CPU, rules in
    rotating order: for B = √P/2 / √P / 2√P, a ``build_cold`` index build
    plus its request's queries (n 768–1280) read 0.28 / 0.20 / 0.14 ms
    (112 / 71 / 49 KB of index), and the combines of one ``mpc_lis`` solve
    4.66 / 4.59 / 4.68 ms (medians of 9 rounds, seed 30001).  Alternating
    √P/2 with √P read 4.67 → 4.50 ms (15 rounds) and 4.59 → 4.25 ms (9
    rounds, seed 20101) per solve; in a fixed-order sweep B = 8 and √P/4
    read 5.6 and 4.5 ms.
    """
    return max(8, math.isqrt(num_points))


class _BlockRowCounts:
    """Per-color dominance counts from a block-row table.

    Each point gets the key ``color·(n_cols + 1) + col``, which puts the
    colors side by side on one axis, and the points are sorted by row and
    cut into blocks of ``B``.  ``_table[k, t]`` is the number of points at
    row-sorted position ``>= k·B`` with key ``< t``.  For a corner ``(i, j)``
    let ``p`` be the position of the first point with row ``>= i``: the
    points from ``p`` on with key below ``q·(n_cols + 1) + j`` (the stacked
    dominance count) are the table at the next block boundary plus the
    members of ``p``'s block from ``p`` on, at most ``B`` of them, which one
    vectorised pass over the whole batch counts.
    """

    __slots__ = ("_row_start", "_suffix", "_table", "_block_keys", "_offsets", "_span")

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        colors: np.ndarray,
        num_colors: int,
        n_rows: int,
        n_cols: int,
        block: int,
    ) -> None:
        num_points = len(rows)
        order = np.argsort(rows, kind="stable")
        colors = colors[order]
        span = n_cols + 1
        keys = colors * span + cols[order]
        num_blocks = num_points // block + 1  # the last one is partial, maybe empty
        dtype = count_dtype(num_points)
        # _row_start[i]: the row-sorted position of the first point with row >= i.
        self._row_start = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=self._row_start[1:])
        # _suffix[p, x]: the color-x points at row-sorted position >= p.
        self._suffix = np.zeros((num_points + 1, num_colors), dtype=dtype)
        self._suffix[np.arange(num_points), colors] = 1
        np.cumsum(self._suffix[::-1], axis=0, out=self._suffix[::-1])
        # Each point counts once at (its block, key + 1); a suffix over the
        # blocks and a prefix over the keys then give the table.  The suffix
        # is a loop of row adds: 2-3.6x faster than np.cumsum along axis 0
        # on tables of 34 x 1025 to 130 x 16385 cells.
        table = np.bincount(
            np.arange(num_points) // block * (num_colors * span) + keys + 1,
            minlength=(num_blocks + 1) * num_colors * span,
        ).reshape(num_blocks + 1, num_colors * span)
        for k in range(num_blocks - 1, -1, -1):
            table[k] += table[k + 1]
        np.cumsum(table, axis=1, out=table)
        self._table = table.astype(dtype)
        # Block members column-major, (B, num_blocks), so a batch of blocks
        # is gathered as (B, batch) and reduced along its first axis.  The
        # padding's key is past every threshold.
        key_dtype = count_dtype(num_colors * span)
        padded = np.full(num_blocks * block, num_colors * span, dtype=key_dtype)
        padded[:num_points] = keys
        self._block_keys = np.ascontiguousarray(padded.reshape(num_blocks, block).T)
        self._offsets = np.arange(block, dtype=np.int16)[:, None]
        self._span = (np.arange(num_colors, dtype=np.int64) * span)[:, None]

    @property
    def nbytes(self) -> int:
        parts = (self._row_start, self._suffix, self._table, self._block_keys)
        return sum(part.nbytes for part in parts)

    def row_suffix(self, i: np.ndarray) -> np.ndarray:
        return self._suffix[self._row_start[i]].astype(np.int64)

    def col_prefix(self, j: np.ndarray) -> np.ndarray:
        first = self._table[0]
        return (first.take(self._span + j) - first.take(self._span)).T.astype(np.int64)

    def stacked_dominance(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``out[b, q] = Σ_{x<q} PΣ_{C,x}(i[b], n) + PΣ_{C,q}(i[b], j[b])``,
        the first two terms of ``F_q``: the points with row ``>= i`` whose key
        is below ``q·(n_cols + 1) + j``."""
        block = len(self._offsets)
        start = self._row_start[i]
        which = start // block
        threshold = self._span + j  # (H, batch): the key bound of each color
        members = self._block_keys.take(which, axis=1)
        lead = (start - which * block).astype(np.int16)
        below = (members < threshold.astype(members.dtype)[:, None, :]) & (self._offsets >= lead)
        in_block = below.view(np.uint8).sum(axis=1, dtype=np.int16)
        beyond = self._table.take((which + 1) * self._table.shape[1] + threshold)
        return (beyond + in_block).T.astype(np.int64)


class _RankTreeCounts:
    """Per-color dominance counts from color-major sorted arrays.

    ``_starts[x]`` is color x's offset into the color-major arrays; the
    ``*_shifted`` arrays hold values offset by ``color * span`` so per-color
    searchsorted batches collapse into one.  One rank tree over the whole
    color-major array answers a per-color prefix as the absolute range
    ``[starts[x], end)``, so batched prefix counts need no per-color
    structures.
    """

    __slots__ = (
        "_row_span", "_col_span", "_starts", "_rows_shifted", "_cols_by_row",
        "_cols_shifted", "_rank_tree", "_num_colors",
    )

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        colors: np.ndarray,
        num_colors: int,
        n_rows: int,
        n_cols: int,
    ) -> None:
        self._num_colors = num_colors
        self._row_span = np.int64(n_rows + 1)
        self._col_span = np.int64(n_cols + 1)
        counts = np.bincount(colors, minlength=num_colors).astype(np.int64)
        self._starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        by_row = np.lexsort((rows, colors))
        self._rows_shifted = rows[by_row] + colors[by_row] * self._row_span
        self._cols_by_row = cols[by_row]
        by_col = np.lexsort((cols, colors))
        self._cols_shifted = cols[by_col] + colors[by_col] * self._col_span
        self._rank_tree = _PrefixRankTree(self._cols_by_row, n_cols)

    @property
    def nbytes(self) -> int:
        parts = (self._starts, self._rows_shifted, self._cols_by_row, self._cols_shifted)
        return sum(part.nbytes for part in parts) + self._rank_tree.nbytes

    def _color_keys(self, values: np.ndarray, span: np.int64) -> np.ndarray:
        """``keys[b, x] = x * span + values[b]`` for the shifted searches."""
        shifts = np.arange(self._num_colors, dtype=np.int64) * span
        return values[:, None] + shifts[None, :]

    def row_suffix(self, i: np.ndarray) -> np.ndarray:
        ends = np.searchsorted(self._rows_shifted, self._color_keys(i, self._row_span))
        return self._starts[1:][None, :] - ends

    def col_prefix(self, j: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self._cols_shifted, self._color_keys(j, self._col_span))
        return pos - self._starts[:-1][None, :]

    def stacked_dominance(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The lower colors' row suffixes plus color q's dominance count.

        The dominance count is (color-q points with col < j) minus (those
        with row < i).  The subtrahend is a prefix-range rank query on the
        color-major tree: the range ``[starts[q], ends[b, q])`` decomposes as
        tree(ends) minus the exclusive running sum of the col-prefix counts
        (everything before color q's segment with col < j).
        """
        col_prefix = self.col_prefix(j)
        row_suffix = self.row_suffix(i)
        ends = self._starts[1:][None, :] - row_suffix
        before_end = self._rank_tree.prefix_count_less(ends, j[:, None])
        before_start = np.cumsum(col_prefix, axis=1) - col_prefix
        lower_rows = np.cumsum(row_suffix, axis=1) - row_suffix
        return lower_rows + col_prefix - (before_end - before_start)


class ColoredPointSet:
    """A set of points ``(row, col)`` each tagged with a color in ``[0, H)``.

    Provides vectorised evaluation of the sub-result distribution matrices
    ``PΣ_{C,x}`` and of ``PΣ_C = min_q F_q`` at arbitrary batches of corners.
    The counts come from a block-row table, or from a rank tree where that
    table would exceed :data:`BLOCK_TABLE_LIMIT` cells.
    """

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        colors: np.ndarray,
        num_colors: int,
        n_rows: int,
        n_cols: int,
    ) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        colors = np.asarray(colors, dtype=np.int64)
        if not (rows.shape == cols.shape == colors.shape):
            raise ValueError("rows, cols and colors must have the same length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
            if colors.min() < 0 or colors.max() >= num_colors:
                raise ValueError("color out of range")
        self.num_colors = int(num_colors)
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.rows = rows
        self.cols = cols
        self.colors = colors

        block = _block_size(rows.size)
        table_cells = self.num_colors * (rows.size // block + 2) * (self.n_cols + 1)
        if table_cells <= BLOCK_TABLE_LIMIT:
            self._counts = _BlockRowCounts(
                rows, cols, colors, self.num_colors, self.n_rows, self.n_cols, block
            )
        else:
            self._counts = _RankTreeCounts(
                rows, cols, colors, self.num_colors, self.n_rows, self.n_cols
            )

    # ------------------------------------------------------------------ memory
    @property
    def nbytes(self) -> int:
        """Resident bytes of the point arrays plus the query structure.

        Used by the service-layer index cache to enforce its byte budget, so
        it must reflect what actually stays alive after construction.
        """
        return self.rows.nbytes + self.cols.nbytes + self.colors.nbytes + self._counts.nbytes

    # ------------------------------------------------------------------ counts
    def row_suffix_counts(self, i: np.ndarray) -> np.ndarray:
        """``out[b, x] = #{points of color x with row >= i[b]}``."""
        return self._counts.row_suffix(np.asarray(i, dtype=np.int64))

    def col_prefix_counts(self, j: np.ndarray) -> np.ndarray:
        """``out[b, x] = #{points of color x with col < j[b]}``."""
        return self._counts.col_prefix(np.asarray(j, dtype=np.int64))

    def dominance_counts(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``out[b, x] = PΣ_{C,x}(i[b], j[b]) = #{color-x points : row >= i, col < j}``."""
        i = np.asarray(i, dtype=np.int64)
        row_suffix = self._counts.row_suffix(i)
        lower_rows = np.cumsum(row_suffix, axis=1) - row_suffix
        return self._counts.stacked_dominance(i, np.asarray(j, dtype=np.int64)) - lower_rows

    # ------------------------------------------------------------ F_q / sigma
    def f_values(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``out[b, q] = F_q(i[b], j[b])`` for every subproblem index q."""
        j = np.asarray(j, dtype=np.int64)
        col_prefix = self._counts.col_prefix(j)
        # Σ_{x > q} col_prefix[x]
        after = col_prefix.sum(axis=1, keepdims=True) - np.cumsum(col_prefix, axis=1)
        return self._counts.stacked_dominance(np.asarray(i, dtype=np.int64), j) + after

    def sigma(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``PΣ_C(i[b], j[b]) = min_q F_q(i[b], j[b])`` (Lemma 3.2)."""
        return self.f_values(i, j).min(axis=1)

    def opt(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``opt(i[b], j[b])``: the smallest q attaining the minimum (0-based)."""
        return np.argmin(self.f_values(i, j), axis=1).astype(np.int64)

    # ----------------------------------------------------------------- combine
    def row_point_columns(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """For each requested parent row, the column of its point in ``P_C``.

        Returns ``-1`` for rows that have no point (sub-permutation case).
        The search runs in ``O(log n_cols)`` vectorised rounds of corner
        evaluations of ``PΣ_C``.
        """
        if rows is None:
            rows = np.arange(self.n_rows, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.empty(0, dtype=np.int64)

        full_j = np.full(len(rows), self.n_cols, dtype=np.int64)
        has_point = (self.sigma(rows, full_j) - self.sigma(rows + 1, full_j)) > 0

        result = np.full(len(rows), -1, dtype=np.int64)
        active = np.flatnonzero(has_point)
        if active.size == 0:
            return result

        lo = np.zeros(len(active), dtype=np.int64)
        hi = np.full(len(active), self.n_cols, dtype=np.int64)
        act_rows = rows[active]
        # Invariant: the step column lies in (lo, hi]; g(hi) >= 1, g(lo) = 0.
        while np.any(lo + 1 < hi):
            mid = (lo + hi) // 2
            g_mid = self.sigma(act_rows, mid) - self.sigma(act_rows + 1, mid)
            take_hi = g_mid >= 1
            hi = np.where(take_hi, mid, hi)
            lo = np.where(take_hi, lo, mid)
        result[active] = hi - 1
        return result

    def combine(self) -> SubPermutation:
        """Compute the full product ``P_C`` as a :class:`SubPermutation`.

        A sub-result point survives unchanged whenever ``P_C`` has a 1 at its
        position (Lemma 3.10 region); those rows are settled with **one**
        stacked sigma evaluation of all four corners of every union point,
        and only the remaining rows (whose point was displaced by a
        demarcation line) run the binary search.
        """
        result_cols = np.full(self.n_rows, -1, dtype=np.int64)

        if self.rows.size:
            # Stage 1: the 4-corner survival test, fused into one stacked
            # evaluation — corners (r, c), (r, c+1), (r+1, c), (r+1, c+1).
            r = self.rows
            c = self.cols
            stacked_i = np.concatenate([r, r, r + 1, r + 1])
            stacked_j = np.concatenate([c, c + 1, c, c + 1])
            s_rc, s_rc1, s_r1c, s_r1c1 = np.split(self.sigma(stacked_i, stacked_j), 4)
            survives = (s_rc1 - s_rc - s_r1c1 + s_r1c) == 1
            result_cols[r[survives]] = c[survives]
            # Unresolved rows via boolean-mask scatter (no sort/merge pass).
            settled = np.zeros(self.n_rows, dtype=bool)
            settled[r[survives]] = True
            unresolved = np.flatnonzero(~settled)
        else:
            unresolved = np.arange(self.n_rows, dtype=np.int64)

        if unresolved.size:
            # Stage 2: binary search for rows not settled by a surviving point.
            found = self.row_point_columns(unresolved)
            result_cols[unresolved] = found

        return SubPermutation(result_cols, n_cols=self.n_cols, validate=True)


def combine_colored(
    rows: np.ndarray,
    cols: np.ndarray,
    colors: np.ndarray,
    num_colors: int,
    n_rows: int,
    n_cols: int,
) -> SubPermutation:
    """Convenience wrapper: build a :class:`ColoredPointSet` and combine it."""
    return ColoredPointSet(rows, cols, colors, num_colors, n_rows, n_cols).combine()


def sigma_from_colored_dense(point_set: ColoredPointSet) -> np.ndarray:
    """Dense ``PΣ_C`` table of shape ``(n_rows+1, n_cols+1)`` (testing only)."""
    n_rows, n_cols = point_set.n_rows, point_set.n_cols
    ii, jj = np.meshgrid(
        np.arange(n_rows + 1, dtype=np.int64),
        np.arange(n_cols + 1, dtype=np.int64),
        indexing="ij",
    )
    values = point_set.sigma(ii.ravel(), jj.ravel())
    return values.reshape(n_rows + 1, n_cols + 1)
