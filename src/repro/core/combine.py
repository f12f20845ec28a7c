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

The query structures are fully vectorised across colors: all points live in
color-major sorted arrays whose values are shifted by ``color * span``, so a
batch of per-color counts is one ``np.searchsorted`` over color-shifted keys
— there is no Python loop over colors anywhere on the query path.  Small
instances instead pre-compute dense per-color distribution tables (int16 —
counts are bounded by the point count — built in place) and answer every
corner by direct indexing.

The same engine is used by the sequential seaweed reference multiplication
(:mod:`repro.core.seaweed`, with ``H = 2`` or larger fan-in) and by the local
per-machine steps of the MPC algorithms (:mod:`repro.mpc_monge`).  The
iterative engine's hot path uses the specialised staircase merge in
:mod:`repro.core.seaweed` instead; this module is its general-``H`` oracle.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

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


#: Maximum number of dense distribution-table entries kept per point set.
#: Small instances pre-compute per-color distribution matrices and answer all
#: corner queries by direct indexing, which removes the per-call overhead of
#: the logarithmic rank structure (important because the sequential seaweed
#: recursion issues very many small combines).
DENSE_TABLE_LIMIT = 1 << 22


class ColoredPointSet:
    """A set of points ``(row, col)`` each tagged with a color in ``[0, H)``.

    Provides vectorised evaluation of the sub-result distribution matrices
    ``PΣ_{C,x}`` and of ``PΣ_C = min_q F_q`` at arbitrary batches of corners.

    ``dense_table_limit`` overrides the module-level :data:`DENSE_TABLE_LIMIT`
    (tests force the sparse path with ``0``); ``None`` keeps the default.
    """

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        colors: np.ndarray,
        num_colors: int,
        n_rows: int,
        n_cols: int,
        *,
        dense_table_limit: Optional[int] = None,
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

        limit = DENSE_TABLE_LIMIT if dense_table_limit is None else int(dense_table_limit)
        table_cells = (n_rows + 1) * (n_cols + 1) * num_colors
        self._dense_tables: Optional[np.ndarray] = None
        if table_cells <= limit:
            # Dense per-color distribution matrices: tables[x, i, j] = PΣ_{C,x}(i, j).
            # Counts are bounded by the point count (<= min(n_rows, n_cols)),
            # so int16 holds them below 32768 points; the column prefix and
            # the row suffix both accumulate in place.
            tables = np.zeros(
                (num_colors, n_rows + 1, n_cols + 1), dtype=count_dtype(rows.size)
            )
            if rows.size:
                np.add.at(tables, (colors, rows, cols + 1), 1)
            np.cumsum(tables, axis=2, out=tables)
            suffix = tables[:, ::-1, :]
            np.cumsum(suffix, axis=1, out=suffix)
            self._dense_tables = tables
            return

        # Color-major sorted structures (one vectorised batch per query, no
        # Python loop over colors).  ``_starts[x]`` is color x's offset into
        # the color-major arrays; the *_shifted arrays hold values offset by
        # ``color * span`` so per-color searchsorted batches collapse into one.
        self._row_span = np.int64(n_rows + 1)
        self._col_span = np.int64(n_cols + 1)
        counts = np.bincount(colors, minlength=num_colors).astype(np.int64)
        self._starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

        by_row = np.lexsort((rows, colors))
        self._rows_shifted = rows[by_row] + colors[by_row] * self._row_span
        self._cols_by_row = cols[by_row]
        by_col = np.lexsort((cols, colors))
        self._cols_shifted = cols[by_col] + colors[by_col] * self._col_span
        # One rank tree over the whole color-major array: a per-color prefix
        # is the absolute range [starts[x], end), so batched prefix counts
        # need no per-color structures.
        self._rank_tree = _PrefixRankTree(self._cols_by_row, n_cols)

    # ------------------------------------------------------------------ memory
    @property
    def nbytes(self) -> int:
        """Resident bytes of the point arrays plus the query acceleration
        structures (dense tables or the color-major arrays and rank tree).

        Used by the service-layer index cache to enforce its byte budget, so
        it must reflect what actually stays alive after construction.
        """
        total = self.rows.nbytes + self.cols.nbytes + self.colors.nbytes
        if self._dense_tables is not None:
            return total + self._dense_tables.nbytes
        total += self._starts.nbytes
        total += self._rows_shifted.nbytes
        total += self._cols_by_row.nbytes
        total += self._cols_shifted.nbytes
        total += self._rank_tree.nbytes
        return total

    # ------------------------------------------------------------------ counts
    def _color_keys(self, values: np.ndarray, span: np.int64) -> np.ndarray:
        """``keys[b, x] = x * span + values[b]`` for the shifted searches."""
        shifts = np.arange(self.num_colors, dtype=np.int64) * span
        return values[:, None] + shifts[None, :]

    def row_suffix_counts(self, i: np.ndarray) -> np.ndarray:
        """``out[b, x] = #{points of color x with row >= i[b]}``."""
        i = np.asarray(i, dtype=np.int64)
        if self._dense_tables is not None:
            return self._dense_tables[:, i, self.n_cols].T.astype(np.int64)
        ends = np.searchsorted(self._rows_shifted, self._color_keys(i, self._row_span))
        return self._starts[1:][None, :] - ends

    def col_prefix_counts(self, j: np.ndarray) -> np.ndarray:
        """``out[b, x] = #{points of color x with col < j[b]}``."""
        j = np.asarray(j, dtype=np.int64)
        if self._dense_tables is not None:
            return self._dense_tables[:, 0, j].T.astype(np.int64)
        pos = np.searchsorted(self._cols_shifted, self._color_keys(j, self._col_span))
        return pos - self._starts[:-1][None, :]

    def dominance_counts(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``out[b, x] = PΣ_{C,x}(i[b], j[b]) = #{color-x points : row >= i, col < j}``."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        if self._dense_tables is not None:
            return self._dense_tables[:, i, j].T.astype(np.int64)
        col_prefix = self.col_prefix_counts(j)
        return self._dominance_from_col_prefix(i, j, col_prefix)

    def _dominance_from_col_prefix(
        self, i: np.ndarray, j: np.ndarray, col_prefix: np.ndarray
    ) -> np.ndarray:
        """Sparse-path dominance counts reusing an existing col-prefix batch.

        ``#{color x: row >= i, col < j}`` = (color-x points with col < j)
        minus (color-x points with row < i and col < j).  The subtrahend is a
        prefix-range rank query on the single color-major tree: the range
        ``[starts[x], ends[b, x])`` decomposes as tree(ends) minus the
        exclusive running sum of the col-prefix counts (everything before
        color x's segment with col < j).
        """
        ends = np.searchsorted(self._rows_shifted, self._color_keys(i, self._row_span))
        before_end = self._rank_tree.prefix_count_less(ends, j[:, None])
        before_start = np.cumsum(col_prefix, axis=1) - col_prefix
        return col_prefix - (before_end - before_start)

    # ------------------------------------------------------------ F_q / sigma
    def f_values(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``out[b, q] = F_q(i[b], j[b])`` for every subproblem index q."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        row_suffix = self.row_suffix_counts(i)
        col_prefix = self.col_prefix_counts(j)
        if self._dense_tables is not None:
            dom = self.dominance_counts(i, j)
        else:
            dom = self._dominance_from_col_prefix(i, j, col_prefix)
        # Σ_{x < q} row_suffix[x]  and  Σ_{x > q} col_prefix[x]
        before = np.cumsum(row_suffix, axis=1) - row_suffix
        total_after = col_prefix.sum(axis=1, keepdims=True)
        after = total_after - np.cumsum(col_prefix, axis=1)
        return before + dom + after

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

        Optimisation: a sub-result point survives unchanged whenever
        ``P_C`` has a 1 at its position (Lemma 3.10 region); those rows are
        settled with **one** stacked sigma evaluation of all four corners of
        every union point, and only the remaining rows (whose point was
        displaced by a demarcation line) run the binary search.  Small
        instances skip both stages and take the fully dense path instead.
        """
        if self._dense_tables is not None:
            return self._combine_dense()

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

    def _combine_dense(self) -> SubPermutation:
        """Dense combine: materialise ``PΣ_C = min_q F_q`` and difference it."""
        tables = self._dense_tables
        before = np.cumsum(tables[:, :, self.n_cols], axis=0) - tables[:, :, self.n_cols]
        col_tot = tables[:, 0, :]
        after = col_tot.sum(axis=0, keepdims=True, dtype=np.int32) - np.cumsum(
            col_tot, axis=0, dtype=np.int32
        )
        sigma = np.min(
            tables + before[:, :, None] + after[:, None, :], axis=0
        )
        density = sigma[:-1, 1:] - sigma[:-1, :-1] - sigma[1:, 1:] + sigma[1:, :-1]
        rows, cols = np.nonzero(density)
        return SubPermutation.from_points(
            rows, cols, self.n_rows, self.n_cols, validate=False
        )


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
