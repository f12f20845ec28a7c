"""Shared machinery for the MPC (sub)unit-Monge multiplication algorithms.

The heart of this module is :class:`SubgridInstance`, the per-machine data of
one *active* subgrid in Section 3.3 of the paper.  An instance contains only
information that fits on one machine:

* the colored union points inside the subgrid's row band and column band
  (the "non-invariant information"; O(G) points for a full permutation),
* per-color boundary offsets at the subgrid's upper-left corner
  (``PΣ_x(r0, n)``, ``PΣ_x(0, c0)`` and ``PΣ_x(r0, c0)`` for every color x;
  O(H) words — the "invariant information"),

and it can evaluate ``F_q`` / ``PΣ_C`` at any corner inside the subgrid using
only that local data, which is what lets one machine finish the subgrid by
itself in a single round.

The simulator's combine (``constant_round.mpc_combine``) charges every
active subgrid one machine of :func:`instance_words` words, but solves all
of them in one batched search on the global point set.  The class is thus
the executable form of the locality claim and the test oracle of that
batched search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["SubgridInstance", "grid_corners", "instance_words"]


def grid_corners(n: int, grid_size: int) -> np.ndarray:
    """Grid-line coordinates ``0, G, 2G, ..., n`` (always including ``n``)."""
    grid_size = max(1, int(grid_size))
    corners = np.arange(0, n + 1, grid_size, dtype=np.int64)
    if corners[-1] != n:
        corners = np.append(corners, n)
    return corners


def instance_words(band_points, num_colors: int):
    """Words one machine holds for a subgrid instance (scalar or array).

    Three words (row, column, color) per point of the row and column bands,
    plus the three per-color corner offsets and a constant header.
    """
    return 3 * band_points + 3 * num_colors + 8


@dataclass
class SubgridInstance:
    """All machine-local data needed to solve one active subgrid (§3.3).

    Coordinates: the subgrid spans rows ``[r0, r1)`` and columns ``[c0, c1)``
    of the parent problem; corner evaluations are valid for any
    ``r0 <= r <= r1`` and ``c0 <= c <= c1``.
    """

    r0: int
    r1: int
    c0: int
    c1: int
    num_colors: int
    # Points whose row lies in [r0, r1):
    band_row_rows: np.ndarray
    band_row_cols: np.ndarray
    band_row_colors: np.ndarray
    # Points whose column lies in [c0, c1):
    band_col_rows: np.ndarray
    band_col_cols: np.ndarray
    band_col_colors: np.ndarray
    # Per-color boundary offsets at the corner (r0, c0):
    row_total_at_r0: np.ndarray  # PΣ_x(r0, n)
    col_total_at_c0: np.ndarray  # PΣ_x(0, c0)
    corner_value: np.ndarray  # PΣ_x(r0, c0)

    # ------------------------------------------------------------------ size
    @property
    def size_words(self) -> int:
        """Number of words a machine must hold to process this instance."""
        return int(
            instance_words(len(self.band_row_rows) + len(self.band_col_rows), self.num_colors)
        )

    # ------------------------------------------------------------ evaluation
    def f_values(self, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """``out[b, q] = F_q(r[b], c[b])`` for corners inside the subgrid."""
        r = np.asarray(r, dtype=np.int64)[:, None]
        c = np.asarray(c, dtype=np.int64)[:, None]
        H = self.num_colors
        batch = r.shape[0]

        # Row-band masks (points with row in [r0, row-threshold)).
        rb_rows = self.band_row_rows[None, :]
        rb_cols = self.band_row_cols[None, :]
        rb_colors = self.band_row_colors

        # Column-band masks (points with col in [c0, col-threshold)).
        cb_rows = self.band_col_rows[None, :]
        cb_cols = self.band_col_cols[None, :]
        cb_colors = self.band_col_colors

        def per_color_count(mask: np.ndarray, colors: np.ndarray) -> np.ndarray:
            # mask: (batch, points) boolean; returns (batch, H) counts per color.
            out = np.zeros((batch, H), dtype=np.int64)
            if colors.size:
                for color in range(H):
                    sel = colors == color
                    if sel.any():
                        out[:, color] = mask[:, sel].sum(axis=1)
            return out

        # rowtot_x(r) = PΣ_x(r, n) = PΣ_x(r0, n) − #{x-points: r0 <= row < r}
        row_removed = per_color_count(rb_rows < r, rb_colors)
        rowtot = self.row_total_at_r0[None, :] - row_removed

        # coltot_x(c) = PΣ_x(0, c) = PΣ_x(0, c0) + #{x-points: c0 <= col < c}
        col_added = per_color_count(cb_cols < c, cb_colors)
        coltot = self.col_total_at_c0[None, :] + col_added

        # dom_x(r, c) = PΣ_x(r, c)
        #            = PΣ_x(r0, c0)
        #              + #{x-points: row >= r0, c0 <= col < c}
        #              − #{x-points: r0 <= row < r, col < c}
        dom_add = per_color_count((cb_cols < c) & (cb_rows >= self.r0), cb_colors)
        dom_sub = per_color_count((rb_rows < r) & (rb_cols < c), rb_colors)
        dom = self.corner_value[None, :] + dom_add - dom_sub

        before = np.cumsum(rowtot, axis=1) - rowtot
        after = coltot.sum(axis=1, keepdims=True) - np.cumsum(coltot, axis=1)
        return before + dom + after

    def sigma(self, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """``PΣ_C(r, c) = min_q F_q(r, c)`` using only subgrid-local data."""
        return self.f_values(r, c).min(axis=1)

    # ----------------------------------------------------------------- solve
    def solve(self) -> Tuple[np.ndarray, np.ndarray]:
        """Find the product's points that lie inside this subgrid.

        For every row of the subgrid's row band, a vectorised binary search
        over the subgrid's column range locates the column at which
        ``PΣ_C(r, ·) − PΣ_C(r+1, ·)`` steps from 0 to 1 (the row's output
        point), provided that step happens inside ``[c0, c1)``.  Returns the
        ``(rows, cols)`` of the discovered points.
        """
        rows = np.arange(self.r0, self.r1, dtype=np.int64)
        if rows.size == 0:
            return rows, rows.copy()

        def g(columns: np.ndarray, active_rows: np.ndarray) -> np.ndarray:
            stacked_r = np.concatenate([active_rows, active_rows + 1])
            stacked_c = np.concatenate([columns, columns])
            sig = self.sigma(stacked_r, stacked_c)
            half = len(active_rows)
            return sig[:half] - sig[half:]

        c0_col = np.full(len(rows), self.c0, dtype=np.int64)
        c1_col = np.full(len(rows), self.c1, dtype=np.int64)
        inside = (g(c0_col, rows) == 0) & (g(c1_col, rows) >= 1)
        active = rows[inside]
        if active.size == 0:
            return active, active.copy()

        lo = np.full(len(active), self.c0, dtype=np.int64)
        hi = np.full(len(active), self.c1, dtype=np.int64)
        while np.any(lo + 1 < hi):
            mid = (lo + hi) // 2
            take_hi = g(mid, active) >= 1
            hi = np.where(take_hi, mid, hi)
            lo = np.where(take_hi, lo, mid)
        return active, hi - 1
