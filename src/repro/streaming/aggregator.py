"""Flat combed leaves: exact semi-local answers over a sliding window.

The (sub)unit-Monge product ``⊡`` is associative, so the value-interval
semi-local matrix of a sequence (Theorem 1.3) factors over *any* bracketing
of its elements in position order — not just the balanced recursion of
:func:`repro.lis.semilocal.value_interval_matrix`.  This module reads that
factorisation without ever multiplying:

* A :class:`BlockProduct` is the semi-local product of one contiguous run of
  window elements, carried together with the run's sorted *keys* (the
  ``(value, tie-break)`` pairs whose lexicographic order defines the rank
  universe).
* A :class:`SeaweedAggregator` keeps the window as a flat list of leaf
  blocks of :data:`LEAF_SIZE` elements, each with its combed product.
  ``append`` / ``evict`` / ``update`` only mark the leaves they touch; the
  next read combs every marked leaf in one
  :func:`~repro.lis.semilocal.build_block_matrices` call.  A leaf holds at
  most ``DENSE_BLOCK_SIZE`` elements, so its build is one comb and never a
  ``⊡`` multiply.
* Answers come from an exact (max,+) *seam sweep* (:func:`cover_scores`)
  straight across the leaf products in window order: it applies the
  factorisation ``T(x, y) = max_v (T_left(x, v) + T_right(v, y))`` without
  materialising any product.  Queries that touch many left corners (window
  sweeps, snapshots, wide rank batches) read one comb of the whole window
  instead, cached until the next mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.permutation import SubPermutation
from ..core.seaweed import multiply
from ..lis.semilocal import (
    SemiLocalLIS,
    build_block_matrices,
    validate_intervals,
    value_interval_matrix,
)

__all__ = [
    "BlockProduct",
    "AggregatorStats",
    "SeaweedAggregator",
    "LEAF_SIZE",
    "build_block_product",
    "build_block_products",
    "cover_scores",
    "multi_cover_scores",
]

#: Sentinel for "no chain reaches this corner" in the seam sweep.  Large
#: enough that adding window-sized scores can never wrap back above zero.
_NEG_INF = np.int64(-(1 << 40))

#: Score-table entry of an empty range (``p >= q``).  It fits int32, and a
#: chain through it stays negative unless the window holds 2^30 elements.
_MASKED = -(1 << 30)

#: Upper bound on seam-sweep temporaries (int64 entries per chunk).
_SWEEP_CHUNK_ENTRIES = 1 << 22

#: Elements per leaf block (at most ``DENSE_BLOCK_SIZE``, so a leaf build is
#: one comb).  Median sliding ticks (push, ``lis_length``, then 4 rank
#: probes) on one pinned CPU of a 2-vCPU host, leaves of 32 / 64 / 128, read
#: 2.38 / 2.20 / 3.02 ms at n = 512 (slide 32), 10.9 / 8.0 / 8.1 ms at
#: n = 4096 and 68.2 / 44.0 / 37.6 ms at n = 16384 (slide 64, random).
#: 64 is best or within 5 % up to n = 4096, the sizes the spec and the perf
#: cases run; 128 wins by about 15 % at n = 16384.  Larger windows favour
#: larger leaves at a proportional memory cost (the score tables hold
#: 4 * LEAF_SIZE bytes per element): push + ``lis_length`` at n = 65536
#: read 154-168 / 99-110 / 81-104 ms with leaves of 64 / 128 / 256 (17.5 /
#: 33.5 / 65.5 MB resident), and an LCS window of 1024 T symbols (66k match
#: points) 163-180 / 107-131 / 101-130 ms.
LEAF_SIZE = 64

#: Above this many distinct left corners, one comb of the window beats one
#: batched seam sweep (see :meth:`SeaweedAggregator.rank_scores`).  Measured
#: on the same CPU over random windows: 32 sweep rows took 1.9 / 26 / 289 ms
#: and 48 rows 3.1 / 48 / 433 ms at n = 512 / 4096 / 16384, against 5.0 /
#: 53 / 406 ms for a comb of the window plus its first reads.
_SWEEP_BATCH_LIMIT = 32


def _lexicographic_ranks(values: np.ndarray, ties: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, ranks)`` of the ``(value, tie)`` pairs, ties decided by ``tie``.

    This is :func:`repro.lis.semilocal.rank_transform` generalised to explicit
    tie-break keys: strict sessions pass ``tie = -arrival`` (equal values can
    never chain), non-strict sessions pass ``tie = +arrival``.
    """
    order = np.lexsort((ties, values))
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.arange(len(values), dtype=np.int64)
    return order, ranks


class BlockProduct:
    """The semi-local product of one contiguous element run, plus its keys.

    ``matrix`` is the value-interval sub-permutation over the run's compacted
    rank universe; ``key_values`` / ``key_ties`` are the run's keys sorted by
    ``(value, tie)`` — rank ``t`` of the universe is the ``t``-th key pair.
    The score table read by the seam sweep is materialised lazily and counted
    in :attr:`nbytes` (it is the dominant resident cost of a leaf).
    """

    __slots__ = ("matrix", "key_values", "key_ties", "_scores")

    def __init__(self, matrix: SubPermutation, key_values: np.ndarray, key_ties: np.ndarray) -> None:
        self.matrix = matrix
        self.key_values = key_values
        self.key_ties = key_ties
        self._scores: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return len(self.key_values)

    @property
    def nbytes(self) -> int:
        """Resident bytes: matrix + keys + the lazily built score table."""
        total = (
            int(self.matrix.nbytes)
            + int(self.key_values.nbytes)
            + int(self.key_ties.nbytes)
        )
        if self._scores is not None:
            total += int(self._scores.nbytes)
        return total

    def score_table(self) -> np.ndarray:
        """The run's local scores ``S[p, q - 1] = (q - p) - K(p, q)``, ``p < q``.

        One row per start rank ``p < s``, one column per end rank ``q = 1..s``
        (int32, cached); entries with ``p >= q`` hold a large negative
        sentinel, so a chain through one stays negative and never scores.
        """
        if self._scores is None:
            s = self.size
            K = self.matrix.distribution_matrix()[:s, 1:]
            p = np.arange(s, dtype=np.int64)[:, None]
            q = np.arange(1, s + 1, dtype=np.int64)[None, :]
            self._scores = np.where(p < q, q - p - K, _MASKED).astype(np.int32)
        return self._scores

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockProduct(size={self.size}, nnz={self.matrix.num_nonzeros})"


def build_block_products(runs: Sequence[Tuple[np.ndarray, np.ndarray]]) -> List[BlockProduct]:
    """Every run's product from scratch, all leaves in one build call.

    Each run is ``(values, ties)`` in *window order* with per-element
    tie-break keys (see :func:`_lexicographic_ranks`).  Runs of at most
    ``DENSE_BLOCK_SIZE`` elements are combed; longer ones are built by the
    forest build and multiplied with ``⊡``.
    """
    roots = []
    keys = []
    for values, ties in runs:
        values = np.asarray(values, dtype=np.float64)
        ties = np.asarray(ties, dtype=np.int64)
        order, ranks = _lexicographic_ranks(values, ties)
        roots.append((np.arange(len(values), dtype=np.int64), ranks))
        keys.append((values[order], ties[order]))
    matrices = build_block_matrices(roots, multiply)
    return [BlockProduct(matrix, *key) for matrix, key in zip(matrices, keys)]


def build_block_product(values: np.ndarray, ties: np.ndarray) -> BlockProduct:
    """One run's product from scratch (:func:`build_block_products`)."""
    return build_block_products([(values, ties)])[0]


# ----------------------------------------------------------------- seam sweep
def _part_slots(parts: Sequence[BlockProduct]) -> Tuple[int, List[np.ndarray]]:
    """Global ranks of every part's keys within the union key universe."""
    if not parts:
        return 0, []
    values = np.concatenate([part.key_values for part in parts])
    ties = np.concatenate([part.key_ties for part in parts])
    order = np.lexsort((ties, values))
    rank = np.empty(len(values), dtype=np.int64)
    rank[order] = np.arange(len(values), dtype=np.int64)
    slots: List[np.ndarray] = []
    offset = 0
    for part in parts:
        slots.append(rank[offset : offset + part.size])
        offset += part.size
    return len(values), slots


def _sweep_one_part(D: np.ndarray, part: BlockProduct, slots: np.ndarray) -> np.ndarray:
    """One (max,+) step of the seam sweep: fold ``part`` into the corner rows.

    ``D[r, v]`` is the best score of a chain through the previous parts whose
    last rank is ``< v`` (one row per simultaneous left corner); the step
    computes ``D'(v) = max(D(v), max_{p < a(v)} [D(e_p) + S(p, a(v))])``
    where ``e`` are the part's global key ranks, ``a(v) = #e < v`` and ``S``
    is the part's local semi-local score (:meth:`BlockProduct.score_table`).
    Because every row of ``D`` is non-decreasing, the best threshold inside
    bucket ``p`` is its right endpoint ``e_p`` — which is what makes the step
    a dense vectorised pass.  ``a(v)`` is 0 up to ``e_0``, where the step
    changes nothing, and ``a`` on ``(e_{a-1}, e_a]``, so the update is one
    repeat of the ``s`` bucket maxima, written into ``D`` in place.
    """
    s = part.size
    if s == 0:
        return D
    rows = D.shape[0]
    S = part.score_table()
    G = D[:, slots]  # (rows, s): best previous score per local bucket
    H = np.empty((rows, s), dtype=np.int64)  # H[:, a - 1]: the bucket maximum at a(v) = a
    chunk = max(1, _SWEEP_CHUNK_ENTRIES // max(1, rows * s))
    for lo in range(0, s, chunk):
        H[:, lo : lo + chunk] = (G[:, :, None] + S[None, :, lo : lo + chunk]).max(axis=1)
    tail = D[:, slots[0] + 1 :]
    np.maximum(tail, np.repeat(H, np.diff(slots, append=D.shape[1] - 1), axis=1), out=tail)
    return D


def multi_cover_scores(
    parts: Sequence[BlockProduct],
    slots: Sequence[np.ndarray],
    m: int,
    xs: np.ndarray,
) -> np.ndarray:
    """Corner-score rows ``T(x_r, ·)`` over a cover, all rows in one sweep.

    ``parts`` are the cover products in window (split) order with their
    precomputed global key ranks ``slots``; ``xs`` are the left corners (one
    output row each).  This is the (max,+) expansion of the ⊡ product
    restricted to corner rows — answers are identical to querying the
    multiplied-out product, at O(rows · (s² + m)) vectorised work per part
    of size ``s`` instead of a chain of full multiplications.
    """
    xs = np.asarray(xs, dtype=np.int64)
    corners = np.arange(m + 1, dtype=np.int64)
    D = np.where(corners[None, :] >= xs[:, None], np.int64(0), _NEG_INF)
    for part, part_slots in zip(parts, slots):
        D = _sweep_one_part(D, part, part_slots)
    return np.maximum(D, 0)


def cover_scores(parts: Sequence[BlockProduct], x: int, y: np.ndarray) -> np.ndarray:
    """Exact semi-local scores ``T(x, y_j)`` over a cover, without a product."""
    m, slots = _part_slots(parts)
    y = np.asarray(y, dtype=np.int64)
    D = multi_cover_scores(parts, slots, m, np.asarray([x], dtype=np.int64))
    return D[0, y]


# ------------------------------------------------------------------ the window
@dataclass
class AggregatorStats:
    """Observable cost counters of one aggregator (JSON-safe via counters())."""

    blocks_built: int = 0
    elements_appended: int = 0
    elements_evicted: int = 0
    updates: int = 0
    seam_sweeps: int = 0

    def counters(self) -> Dict[str, int]:
        return {
            "blocks_built": int(self.blocks_built),
            "elements_appended": int(self.elements_appended),
            "elements_evicted": int(self.elements_evicted),
            "updates": int(self.updates),
            "seam_sweeps": int(self.seam_sweeps),
        }


class _Leaf:
    """One leaf block: its elements, arrival ids, evicted prefix and product.

    ``product`` covers the live elements; it is ``None`` until the next read
    combs it, and again after every mutation of the leaf.
    """

    __slots__ = ("values", "start_arrival", "evicted", "product")

    def __init__(self, start_arrival: int) -> None:
        self.values = np.empty(0, dtype=np.float64)
        self.start_arrival = start_arrival
        self.evicted = 0
        self.product: Optional[BlockProduct] = None

    @property
    def live(self) -> int:
        return len(self.values) - self.evicted

    def live_values(self) -> np.ndarray:
        return self.values[self.evicted :]

    def arrivals(self, lo: int, hi: int) -> np.ndarray:
        """Arrival ids of the live elements ``[lo, hi)`` (live offsets)."""
        return self.start_arrival + np.arange(self.evicted + lo, self.evicted + hi, dtype=np.int64)


class SeaweedAggregator:
    """A sliding window of combed leaf blocks, answered by seam sweeps.

    ``strict`` is the LIS strictness of the maintained value-interval product
    (the ``strict`` flag of :func:`repro.lis.semilocal.value_interval_matrix`;
    every answer equals one read off a from-scratch build of the current
    window, and :meth:`to_semilocal` is that build).
    """

    def __init__(self, *, strict: bool = True) -> None:
        self.strict = bool(strict)
        self.stats = AggregatorStats()
        self._leaves: List[_Leaf] = []
        self._next_arrival = 0
        #: Both caches hold until the next mutation: the window's comb, and
        #: the leaf products with their global key ranks.
        self._comb: Optional[SemiLocalLIS] = None
        self._cover: Optional[Tuple[List[BlockProduct], List[np.ndarray], int]] = None

    # ------------------------------------------------------------------ sizing
    def __len__(self) -> int:
        return sum(leaf.live for leaf in self._leaves)

    @property
    def size(self) -> int:
        """Number of live window elements."""
        return len(self)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the leaf products plus the cached window comb."""
        total = sum(leaf.product.nbytes for leaf in self._leaves if leaf.product is not None)
        if self._comb is not None:
            total += int(self._comb.matrix.nbytes)
        return total

    def window_values(self) -> np.ndarray:
        """The live window contents, in position order (oracle comparisons)."""
        if not self._leaves:
            return np.empty(0, dtype=np.float64)
        return np.concatenate([leaf.live_values() for leaf in self._leaves])

    # -------------------------------------------------------------- mutations
    def _run(self, leaf: _Leaf, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(values, ties)`` of a leaf's live elements ``[lo, hi)``."""
        arrivals = leaf.arrivals(lo, hi)
        return leaf.values[leaf.evicted + lo : leaf.evicted + hi], (
            -arrivals if self.strict else arrivals
        )

    def _touch(self) -> None:
        self._comb = None
        self._cover = None

    def append(self, values: Sequence[float]) -> None:
        """Append elements at the window's tail (splits into leaf blocks)."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        offset = 0
        while offset < len(values):
            if not self._leaves or len(self._leaves[-1].values) >= LEAF_SIZE:
                self._leaves.append(_Leaf(self._next_arrival + offset))
            leaf = self._leaves[-1]
            take = min(LEAF_SIZE - len(leaf.values), len(values) - offset)
            leaf.values = np.concatenate([leaf.values, values[offset : offset + take]])
            leaf.product = None
            offset += take
        self._next_arrival += len(values)
        self.stats.elements_appended += len(values)
        self._touch()

    def evict(self, count: int) -> int:
        """Drop the ``count`` oldest window elements; returns how many went."""
        count = int(count)
        if count < 0:
            raise ValueError(f"evict count must be non-negative, got {count}")
        dropped = 0
        while count > 0 and self._leaves:
            head = self._leaves[0]
            take = min(count, head.live)
            head.evicted += take
            head.product = None
            count -= take
            dropped += take
            if head.live == 0:
                self._leaves.pop(0)
        self.stats.elements_evicted += dropped
        if dropped:
            self._touch()
        return dropped

    def update(self, position: int, value: float) -> None:
        """Replace the window element at ``position`` (0-based from the head).

        Only the containing leaf is rebuilt, at the next read.
        """
        position = int(position)
        if position < 0 or position >= len(self):
            raise IndexError(f"update position {position} outside window of {len(self)}")
        for leaf in self._leaves:
            if position < leaf.live:
                leaf.values[leaf.evicted + position] = float(value)
                leaf.product = None
                break
            position -= leaf.live
        self.stats.updates += 1
        self._touch()

    # ---------------------------------------------------------------- queries
    def _products(self) -> List[BlockProduct]:
        """Every leaf's product in window order; stale leaves combed in one call."""
        stale = [leaf for leaf in self._leaves if leaf.product is None]
        if stale:
            products = build_block_products([self._run(leaf, 0, leaf.live) for leaf in stale])
            for leaf, product in zip(stale, products):
                leaf.product = product
            self.stats.blocks_built += len(stale)
        return [leaf.product for leaf in self._leaves]

    def _leaf_cover(self) -> Tuple[List[BlockProduct], List[np.ndarray], int]:
        """The leaf products plus each one's global key ranks.

        Every query between two mutations shares them, so the O(m log m) key
        merge happens once per mutation, not once per query.
        """
        if self._cover is None:
            parts = self._products()
            m, slots = _part_slots(parts)
            self._cover = (parts, slots, m)
        return self._cover

    def to_semilocal(self) -> SemiLocalLIS:
        """The window's value-interval :class:`SemiLocalLIS`, cached.

        ``value_interval_matrix(window, strict=strict)`` itself: a window of
        at most ``DENSE_BLOCK_SIZE`` elements is one comb.
        """
        if self._comb is None:
            self._comb = value_interval_matrix(self.window_values(), strict=self.strict)
        return self._comb

    def rank_scores(self, x, y) -> np.ndarray:
        """Batched semi-local scores over rank windows ``[x, y)`` (exact).

        Served from the window comb when one is cached or the batch has more
        than :data:`_SWEEP_BATCH_LIMIT` distinct left corners; otherwise one
        seam sweep across the leaves, one row per distinct left corner.
        """
        x, y = validate_intervals(x, y, len(self), what="rank interval")
        if self._comb is None:
            distinct, row_of = np.unique(x, return_inverse=True)
            if len(distinct) <= _SWEEP_BATCH_LIMIT:
                parts, slots, m = self._leaf_cover()
                self.stats.seam_sweeps += len(distinct)
                return multi_cover_scores(parts, slots, m, distinct)[row_of, y]
        return self.to_semilocal().score(x, y)

    def lis_length(self) -> int:
        """The LIS of the current window (the ``(0, m)`` corner score)."""
        m = len(self)
        if m == 0:
            return 0
        return int(self.rank_scores(0, m)[0])

    def substring_scores(self, i, j) -> np.ndarray:
        """Batched LIS of the window *subsegments* ``[i, j)`` (position space).

        Position restriction cannot be read off the value-interval product,
        but it is a run of leaves: each query runs one seam sweep over the
        leaves inside its range plus its clipped edge leaves, and the edge
        pieces of the whole batch are combed in one call.
        """
        i, j = validate_intervals(i, j, len(self), what="substring window")
        products = self._products()
        lives = [leaf.live for leaf in self._leaves]
        starts = np.concatenate([[0], np.cumsum(lives, dtype=np.int64)])
        queries: List[List[Tuple[int, int, int]]] = []  # (leaf, lo, hi) pieces
        for lo, hi in zip(i.tolist(), j.tolist()):
            pieces = []
            k = int(np.searchsorted(starts, lo, side="right")) - 1
            while lo < hi:
                stop = min(hi, int(starts[k + 1]))
                pieces.append((k, lo - int(starts[k]), stop - int(starts[k])))
                lo, k = stop, k + 1
            queries.append(pieces)
        clipped = sorted(
            {piece for pieces in queries for piece in pieces if piece[2] - piece[1] < lives[piece[0]]}
        )
        runs = [self._run(self._leaves[k], lo, hi) for k, lo, hi in clipped]
        edges = dict(zip(clipped, build_block_products(runs)))
        self.stats.blocks_built += len(clipped)
        out = np.zeros(len(i), dtype=np.int64)
        for idx, pieces in enumerate(queries):
            if not pieces:
                continue
            parts = [edges[piece] if piece in edges else products[piece[0]] for piece in pieces]
            span = sum(part.size for part in parts)
            self.stats.seam_sweeps += 1
            out[idx] = cover_scores(parts, 0, np.asarray([span], dtype=np.int64))[0]
        return out

    def window_sweep(self, width: int, step: int = 1) -> np.ndarray:
        """Scores of every ``width``-wide rank window, strided by ``step``.

        Sweeps touch every left corner, so they are answered from the
        window comb (cached until the next mutation).
        """
        m = len(self)
        width = int(width)
        step = int(step)
        if width < 1 or width > m:
            raise ValueError(f"window width must satisfy 1 <= width <= {m}, got {width}")
        if step < 1:
            raise ValueError(f"window step must be >= 1, got {step}")
        starts = np.arange(0, m - width + 1, step, dtype=np.int64)
        return self.to_semilocal().score(starts, starts + width)

    def counters(self) -> Dict[str, int]:
        """JSON-safe cost/occupancy counters (artifact ``streaming`` section)."""
        doc = dict(self.stats.counters())
        doc["window"] = len(self)
        doc["leaves"] = len(self._leaves)
        doc["nbytes"] = int(self.nbytes)
        return doc
