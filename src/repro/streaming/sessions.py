"""Streaming sessions: per-tick LIS / LCS over a sliding window.

The session objects are the user-facing surface of the streaming subsystem:

* :class:`StreamingLIS` maintains the semi-local LIS of a sliding sequence
  window.  ``push`` slides the window (append new symbols, evict overflow),
  ``update`` patches one position in place; per-tick answers —
  :meth:`~StreamingLIS.lis_length`, rank-interval probes, substring probes
  and full :meth:`~StreamingLIS.window_sweep` queries — are exact and
  checksum-identical to rebuilding the Theorem 1.3 product from scratch on
  the current window.
* :class:`StreamingLCS` maintains ``LCS(S, T-window)`` for a fixed reference
  ``S`` while ``T`` streams, via the Corollary 1.3.3 reduction: every ``T``
  symbol contributes its Hunt–Szymanski match positions (descending, so
  equal ``T`` positions can never chain) to a strict-LIS aggregator keyed by
  ``S`` position.  Appending or evicting one ``T`` symbol touches only the
  match points it owns.

Both sessions delegate the heavy lifting to one
:class:`~repro.streaming.aggregator.SeaweedAggregator` and therefore inherit
its cost profile: a sliding mutation re-combs only the leaf blocks it
touches, answers come from seam sweeps across the leaves, and the window is
combed whole only when a sweep-shaped query genuinely needs it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..lis.semilocal import SemiLocalLIS
from .aggregator import SeaweedAggregator

__all__ = ["StreamingLIS", "StreamingLCS"]


class StreamingLIS:
    """Sliding-window semi-local LIS over combed leaf blocks.

    Parameters
    ----------
    window:
        Maximum window length maintained by :meth:`push` (``None`` keeps the
        window unbounded; ``append``/``evict`` always remain available).
    strict:
        Strictly increasing (default) vs non-decreasing subsequences.
    """

    def __init__(self, *, window: Optional[int] = None, strict: bool = True) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window must be positive (or None), got {window}")
        self.window = window
        self.aggregator = SeaweedAggregator(strict=strict)
        self.ticks = 0

    # -------------------------------------------------------------- mutations
    def append(self, values: Sequence[float]) -> None:
        """Append symbols at the tail (window may exceed the configured cap)."""
        self.aggregator.append(values)
        self.ticks += 1

    def evict(self, count: int) -> int:
        """Evict the ``count`` oldest symbols; returns how many were dropped."""
        dropped = self.aggregator.evict(count)
        self.ticks += 1
        return dropped

    def push(self, values: Sequence[float]) -> int:
        """One slide tick: append ``values``, evict down to the window cap.

        Returns the number of evicted symbols (0 while the window warms up).
        """
        self.aggregator.append(values)
        dropped = 0
        if self.window is not None and len(self.aggregator) > self.window:
            dropped = self.aggregator.evict(len(self.aggregator) - self.window)
        self.ticks += 1
        return dropped

    def update(self, position: int, value: float) -> None:
        """Replace the symbol at window ``position`` (one leaf re-combed)."""
        self.aggregator.update(position, value)
        self.ticks += 1

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.aggregator)

    @property
    def size(self) -> int:
        return len(self.aggregator)

    def window_values(self) -> np.ndarray:
        """The current window contents (position order)."""
        return self.aggregator.window_values()

    def lis_length(self) -> int:
        """LIS of the current window (exact, per tick)."""
        return self.aggregator.lis_length()

    def rank_intervals(self, x, y) -> np.ndarray:
        """Batched LIS over rank windows ``[x, y)`` of the current window."""
        return self.aggregator.rank_scores(x, y)

    def rank_interval(self, x: int, y: int) -> int:
        return int(self.rank_intervals(x, y)[0])

    def substring_scores(self, i, j) -> np.ndarray:
        """Batched LIS of window subsegments ``[i, j)`` (position space)."""
        return self.aggregator.substring_scores(i, j)

    def substring_lis(self, i: int, j: int) -> int:
        return int(self.substring_scores(i, j)[0])

    def window_sweep(self, width: int, step: int = 1) -> np.ndarray:
        """Every ``width``-wide rank window, answered from the window comb."""
        return self.aggregator.window_sweep(width, step)

    def to_semilocal(self) -> SemiLocalLIS:
        """The window's value-interval product (one comb, cached)."""
        return self.aggregator.to_semilocal()

    def counters(self) -> Dict[str, int]:
        doc = self.aggregator.counters()
        doc["ticks"] = int(self.ticks)
        return doc


class StreamingLCS:
    """``LCS(S, T-window)`` maintained incrementally while ``T`` streams.

    Parameters
    ----------
    reference:
        The fixed string ``S``.
    window:
        Maximum number of live ``T`` symbols kept by :meth:`push` (``None``
        keeps ``T`` unbounded).
    """

    def __init__(self, reference: Sequence, *, window: Optional[int] = None) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window must be positive (or None), got {window}")
        self.reference = np.asarray(reference)
        self.window = window
        # Descending S-positions per symbol: appending one T symbol appends
        # its matches in an order that forbids chaining two matches of the
        # same T position (the strict-LIS tie-break of Corollary 1.3.3).
        self._matches: Dict[float, np.ndarray] = {}
        for value in np.unique(self.reference):
            positions = np.flatnonzero(self.reference == value)[::-1].astype(np.float64)
            self._matches[float(value)] = positions
        self.aggregator = SeaweedAggregator(strict=True)
        self._t_symbols: List[float] = []
        self._t_counts: List[int] = []
        self.ticks = 0

    # -------------------------------------------------------------- mutations
    def _append(self, symbols: Sequence) -> None:
        symbols = np.asarray(symbols).ravel()
        points: List[np.ndarray] = []
        for symbol in symbols:
            matches = self._matches.get(float(symbol), None)
            count = 0 if matches is None else len(matches)
            if count:
                points.append(matches)
            self._t_symbols.append(float(symbol))
            self._t_counts.append(count)
        if points:
            self.aggregator.append(np.concatenate(points))

    def _evict(self, count: int) -> int:
        if count < 0:
            raise ValueError(f"evict count must be non-negative, got {count}")
        count = min(int(count), len(self._t_counts))
        dropped_points = sum(self._t_counts[:count])
        del self._t_counts[:count]
        del self._t_symbols[:count]
        if dropped_points:
            self.aggregator.evict(dropped_points)
        return count

    def append(self, symbols: Sequence) -> None:
        """Append symbols to the live end of ``T``."""
        self._append(symbols)
        self.ticks += 1

    def evict(self, count: int) -> int:
        """Drop the ``count`` oldest ``T`` symbols (and their match points)."""
        dropped = self._evict(count)
        self.ticks += 1
        return dropped

    def push(self, symbols: Sequence) -> int:
        """One slide tick: append symbols, evict ``T`` down to the window cap."""
        self._append(symbols)
        dropped = 0
        if self.window is not None and len(self._t_counts) > self.window:
            dropped = self._evict(len(self._t_counts) - self.window)
        self.ticks += 1
        return dropped

    # ---------------------------------------------------------------- queries
    @property
    def t_length(self) -> int:
        """Number of live ``T`` symbols."""
        return len(self._t_counts)

    def t_window(self) -> np.ndarray:
        """The live ``T`` contents (position order)."""
        return np.asarray(self._t_symbols, dtype=self.reference.dtype)

    def lcs_length(self) -> int:
        """``LCS(S, T-window)`` (exact, per tick)."""
        return self.aggregator.lis_length()

    def query_batch(self, i, j) -> np.ndarray:
        """Batched ``LCS(S, T_window[i:j])`` over ``T``-position windows.

        A ``T`` window is a *split-order* range of match points, so each
        window runs one seam sweep over its leaves (clipped edge leaves
        combed for the whole batch at once) — no product is materialised.
        """
        i = np.atleast_1d(np.asarray(i, dtype=np.int64))
        j = np.atleast_1d(np.asarray(j, dtype=np.int64))
        i, j = np.broadcast_arrays(i, j)
        bad = (i < 0) | (j > self.t_length) | (i > j)
        if np.any(bad):
            first = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"invalid T window ({int(i[first])}, {int(j[first])}): windows must "
                f"satisfy 0 <= i <= j <= {self.t_length}"
            )
        prefix = np.concatenate([[0], np.cumsum(self._t_counts)]).astype(np.int64)
        return self.aggregator.substring_scores(prefix[i], prefix[j])

    def query(self, i: int, j: int) -> int:
        """``LCS(S, T_window[i:j])``."""
        return int(self.query_batch(i, j)[0])

    def window_sweep(self, width: int, step: int = 1) -> np.ndarray:
        """``LCS(S, ·)`` of every ``width``-wide ``T`` window, strided by ``step``."""
        width = int(width)
        step = int(step)
        if width < 1 or width > self.t_length:
            raise ValueError(
                f"window width must satisfy 1 <= width <= {self.t_length}, got {width}"
            )
        if step < 1:
            raise ValueError(f"window step must be >= 1, got {step}")
        starts = np.arange(0, self.t_length - width + 1, step, dtype=np.int64)
        return self.query_batch(starts, starts + width)

    def counters(self) -> Dict[str, int]:
        doc = self.aggregator.counters()
        doc["ticks"] = int(self.ticks)
        doc["t_length"] = self.t_length
        doc["match_points"] = int(sum(self._t_counts))
        return doc
