"""The seaweed segment tree: incremental semi-local recomposition.

The (sub)unit-Monge product ``⊡`` is associative, so the value-interval
semi-local matrix of a sequence (Theorem 1.3) factors over *any* bracketing
of its elements in position order — not just the balanced recursion of
:func:`repro.lis.semilocal.value_interval_matrix`.  This module exploits that
monoid structure for streams:

* A :class:`BlockProduct` is the semi-local product of one contiguous run of
  window elements, carried together with the run's sorted *keys* (the
  ``(value, tie-break)`` pairs whose lexicographic order defines the rank
  universe).  Two adjacent runs merge with one relabel-and-multiply — the
  same ``embed_into_universe`` + ``multiply`` step used by the batch builders.
* A :class:`SeaweedAggregator` shards the current window into leaf blocks,
  memoizes aligned tree nodes over sealed leaves in an ``nbytes``-aware
  :class:`NodeStore`, and supports ``append`` / ``evict`` / ``update`` by
  touching only the affected leaf plus the O(log n) node path above it —
  never a full rebuild.  As the window slides, each tree node is multiplied
  once per lifetime, so the amortised per-element maintenance cost is the
  build cost divided by the window length.
* Per-tick answers do **not** require recombining the root: the aggregator
  evaluates semi-local scores directly over the O(log n) cover products with
  an exact (max,+) *seam sweep* (:func:`cover_scores`), which applies the
  factorisation ``T(x, y) = max_v (T_left(x, v) + T_right(v, y))`` across the
  cover without materialising any product.  The true root product (needed for
  window sweeps, snapshots and the service refresh path) is folded on demand
  and cached until the next mutation.

Leaf builds are dispatched through the PR-2 execution engine
(:mod:`repro.mpc.engine`), so ``backend='thread'`` parallelises multi-leaf
appends; every backend produces bit-identical products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.permutation import SubPermutation
from ..core.seaweed import multiply
from ..lis.semilocal import (
    DENSE_BLOCK_SIZE,
    MultiplyFn,
    SemiLocalLIS,
    _build_recursive,
    embed_into_universe,
    validate_intervals,
)
from ..mpc.engine import ExecutionBackend, resolve_backend

__all__ = [
    "MultiplyFn",
    "BlockProduct",
    "NodeStore",
    "AggregatorStats",
    "SeaweedAggregator",
    "build_block_product",
    "combine_block_products",
    "merge_key_slots",
    "cover_scores",
    "multi_cover_scores",
]

#: Sentinel for "no chain reaches this corner" in the seam sweep.  Large
#: enough that adding window-sized scores can never wrap back above zero.
_NEG_INF = np.int64(-(1 << 40))

#: Upper bound on seam-sweep temporaries (int64 entries per chunk).
_SWEEP_CHUNK_ENTRIES = 1 << 22


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
    The dense distribution matrix used by the seam sweep is materialised
    lazily and counted in :attr:`nbytes` (it is the dominant resident cost of
    hot nodes).
    """

    __slots__ = ("matrix", "key_values", "key_ties", "_dense")

    def __init__(self, matrix: SubPermutation, key_values: np.ndarray, key_ties: np.ndarray) -> None:
        self.matrix = matrix
        self.key_values = key_values
        self.key_ties = key_ties
        self._dense: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return len(self.key_values)

    @property
    def nbytes(self) -> int:
        """Resident bytes: matrix + keys + the lazily built dense table."""
        total = (
            int(self.matrix.nbytes)
            + int(self.key_values.nbytes)
            + int(self.key_ties.nbytes)
        )
        if self._dense is not None:
            total += int(self._dense.nbytes)
        return total

    def dense_distribution(self) -> np.ndarray:
        """The ``(s+1) x (s+1)`` distribution table ``K`` (int32, cached)."""
        if self._dense is None:
            self._dense = self.matrix.distribution_matrix().astype(np.int32)
        return self._dense

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockProduct(size={self.size}, nnz={self.matrix.num_nonzeros})"


def empty_block_product() -> BlockProduct:
    """The monoid identity: zero elements, the 0x0 matrix."""
    return BlockProduct(
        SubPermutation.empty(0, 0),
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=np.int64),
    )


def build_block_product(
    values: np.ndarray,
    ties: np.ndarray,
    multiply_fn: MultiplyFn = multiply,
    dense_block_size: int = DENSE_BLOCK_SIZE,
) -> BlockProduct:
    """Build one run's product from scratch (``_build_recursive`` machinery).

    ``values`` are in *window order*; ``ties`` are the per-element tie-break
    keys (see :func:`_lexicographic_ranks`).
    """
    values = np.asarray(values, dtype=np.float64)
    ties = np.asarray(ties, dtype=np.int64)
    m = len(values)
    order, ranks = _lexicographic_ranks(values, ties)
    matrix = _build_recursive(
        np.arange(m, dtype=np.int64), ranks, multiply_fn, dense_block_size
    )
    return BlockProduct(matrix, values[order], ties[order])


def merge_key_slots(
    left: BlockProduct, right: BlockProduct
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge two sorted key runs: ``(values, ties, left_slots, right_slots)``.

    ``left_slots[t]`` is the merged-universe rank of the left run's ``t``-th
    key (strictly increasing — the relabelling map of the paper's §4.2).
    """
    values = np.concatenate([left.key_values, right.key_values])
    ties = np.concatenate([left.key_ties, right.key_ties])
    order = np.lexsort((ties, values))
    rank = np.empty(len(values), dtype=np.int64)
    rank[order] = np.arange(len(values), dtype=np.int64)
    return values[order], ties[order], rank[: left.size], rank[left.size :]


def combine_block_products(
    left: BlockProduct, right: BlockProduct, multiply_fn: MultiplyFn = multiply
) -> BlockProduct:
    """``left ⊡ right`` for adjacent runs: relabel into the union and multiply."""
    if left.size == 0:
        return right
    if right.size == 0:
        return left
    values, ties, left_slots, right_slots = merge_key_slots(left, right)
    universe = len(values)
    left_embedded = embed_into_universe(left.matrix, left_slots, universe)
    right_embedded = embed_into_universe(right.matrix, right_slots, universe)
    return BlockProduct(multiply_fn(left_embedded, right_embedded), values, ties)


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
    is the part's local semi-local score ``(q - p) - K(p, q)``.  Because
    every row of ``D`` is non-decreasing, the best threshold inside bucket
    ``p`` is its right endpoint ``e_p`` — which is what makes the step a
    dense vectorised pass.
    """
    s = part.size
    if s == 0:
        return D
    rows = D.shape[0]
    K = part.dense_distribution()
    G = D[:, slots]  # (rows, s): best previous score per local bucket
    p_idx = np.arange(s, dtype=np.int64)
    base = G - p_idx[None, :]
    q_idx = np.arange(s + 1, dtype=np.int64)
    H = np.full((rows, s + 1), _NEG_INF, dtype=np.int64)
    chunk = max(1, _SWEEP_CHUNK_ENTRIES // max(1, rows * s))
    for lo in range(0, s + 1, chunk):
        hi = min(s + 1, lo + chunk)
        q = q_idx[lo:hi]
        cand = base[:, :, None] + q[None, None, :] - K[None, :s, lo:hi].astype(np.int64)
        np.copyto(cand, _NEG_INF, where=(p_idx[:, None] >= q[None, :])[None, :, :])
        H[:, lo:hi] = cand.max(axis=1, initial=_NEG_INF)
    corners = np.arange(D.shape[1], dtype=np.int64)
    a_v = np.searchsorted(slots, corners, side="left")
    return np.maximum(D, H[:, a_v])


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
    multiplied-out root product, at O(rows · sum of part sizes squared)
    vectorised work instead of a chain of full multiplications.
    """
    xs = np.asarray(xs, dtype=np.int64)
    corners = np.arange(m + 1, dtype=np.int64)
    D = np.where(corners[None, :] >= xs[:, None], np.int64(0), _NEG_INF)
    for part, part_slots in zip(parts, slots):
        D = _sweep_one_part(D, part, part_slots)
    return np.maximum(D, 0)


def cover_scores(parts: Sequence[BlockProduct], x: int, y: np.ndarray) -> np.ndarray:
    """Exact semi-local scores ``T(x, y_j)`` over a cover, without a root."""
    m, slots = _part_slots(parts)
    y = np.asarray(y, dtype=np.int64)
    D = multi_cover_scores(parts, slots, m, np.asarray([x], dtype=np.int64))
    return D[0, y]


def _leaf_build_task(item: Tuple[np.ndarray, np.ndarray], _index: int):
    """Backend-mapped leaf build: ``(values, ties) -> (product, multiplies)``.

    Pure with respect to shared state — each task counts its own multiplies
    locally and the driver merges the deltas after the map, so the thread
    backend can genuinely run leaf builds concurrently.  The ``(values, ...)``
    tuple shape also lets the engine's item-weight heuristic see the real
    element count when deciding whether threading pays.
    """
    values, ties = item
    performed = [0]

    def counting_multiply(left: SubPermutation, right: SubPermutation) -> SubPermutation:
        performed[0] += 1
        return multiply(left, right)

    return build_block_product(values, ties, counting_multiply), performed[0]


# ------------------------------------------------------------------ the tree
class NodeStore:
    """``nbytes``-aware store of memoized tree-node :class:`BlockProduct`\\ s.

    Keys are ``(level, index)`` on the infinite aligned binary grid over
    global leaf numbers: node ``(j, i)`` covers leaves ``[i·2^j, (i+1)·2^j)``.
    The aggregator prunes entries whose leftmost leaf has been evicted; the
    store only accounts, it never decides.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int], BlockProduct] = {}
        self.inserts = 0
        self.prunes = 0

    def get(self, key: Tuple[int, int]) -> Optional[BlockProduct]:
        return self._entries.get(key)

    def put(self, key: Tuple[int, int], product: BlockProduct) -> None:
        self._entries[key] = product
        self.inserts += 1

    def discard(self, key: Tuple[int, int]) -> None:
        self._entries.pop(key, None)

    def prune_before(self, first_live_leaf: int) -> int:
        """Drop every node whose leftmost leaf precedes ``first_live_leaf``."""
        dead = [key for key in self._entries if (key[1] << key[0]) < first_live_leaf]
        for key in dead:
            del self._entries[key]
        self.prunes += len(dead)
        return len(dead)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._entries

    @property
    def nbytes(self) -> int:
        """Total resident bytes of every stored product (incl. dense tables)."""
        return sum(product.nbytes for product in self._entries.values())

    def counters(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "nbytes": int(self.nbytes),
            "inserts": int(self.inserts),
            "prunes": int(self.prunes),
        }


@dataclass
class AggregatorStats:
    """Observable cost counters of one aggregator (JSON-safe via counters())."""

    multiplies: int = 0
    blocks_built: int = 0
    elements_appended: int = 0
    elements_evicted: int = 0
    updates: int = 0
    root_rebuilds: int = 0
    seam_sweeps: int = 0

    def counters(self) -> Dict[str, int]:
        return {
            "multiplies": int(self.multiplies),
            "blocks_built": int(self.blocks_built),
            "elements_appended": int(self.elements_appended),
            "elements_evicted": int(self.elements_evicted),
            "updates": int(self.updates),
            "root_rebuilds": int(self.root_rebuilds),
            "seam_sweeps": int(self.seam_sweeps),
        }


class _Leaf:
    """One leaf block: its elements, arrival ids and evicted prefix length."""

    __slots__ = ("leaf_id", "values", "start_arrival", "evicted")

    def __init__(self, leaf_id: int, start_arrival: int) -> None:
        self.leaf_id = leaf_id
        self.values = np.empty(0, dtype=np.float64)
        self.start_arrival = start_arrival
        self.evicted = 0

    @property
    def live(self) -> int:
        return len(self.values) - self.evicted

    def live_values(self) -> np.ndarray:
        return self.values[self.evicted :]

    def live_arrivals(self) -> np.ndarray:
        return self.start_arrival + np.arange(self.evicted, len(self.values), dtype=np.int64)


#: Default number of elements per leaf block (kept at or below the dense
#: construction threshold so leaf rebuilds never recurse).
DEFAULT_LEAF_SIZE = 64


class SeaweedAggregator:
    """A sliding-window monoid aggregator over seaweed block products.

    Parameters
    ----------
    strict:
        LIS strictness of the maintained value-interval product (matches the
        ``strict`` flag of :func:`repro.lis.semilocal.value_interval_matrix`;
        the root product is bit-identical to a from-scratch build of the
        current window).
    leaf_size:
        Elements per leaf block.  The default stays below the dense
        construction threshold, so per-tick leaf rebuilds are one vectorised
        dense pass.
    backend:
        PR-2 execution backend (name or instance) used to fan out multi-leaf
        block builds; answers are bit-identical across backends.
    """

    def __init__(
        self,
        *,
        strict: bool = True,
        leaf_size: int = DEFAULT_LEAF_SIZE,
        backend: Union[None, str, ExecutionBackend] = None,
    ) -> None:
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be positive, got {leaf_size}")
        self.strict = bool(strict)
        self.leaf_size = int(leaf_size)
        self.backend: ExecutionBackend = resolve_backend(backend)
        self.store = NodeStore()
        self.stats = AggregatorStats()
        self._leaves: List[_Leaf] = []
        self._leaf_by_id: Dict[int, _Leaf] = {}
        self._next_arrival = 0
        self._next_leaf_id = 0
        self._version = 0
        self._root: Optional[BlockProduct] = None
        self._root_version = -1
        self._root_semilocal: Optional[SemiLocalLIS] = None
        self._cover_cache = None

    # ------------------------------------------------------------------ sizing
    def __len__(self) -> int:
        return sum(leaf.live for leaf in self._leaves)

    @property
    def size(self) -> int:
        """Number of live window elements."""
        return len(self)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the node store plus the cached root product."""
        total = self.store.nbytes
        if self._root is not None:
            total += self._root.nbytes
        return total

    def window_values(self) -> np.ndarray:
        """The live window contents, in position order (oracle comparisons)."""
        if not self._leaves:
            return np.empty(0, dtype=np.float64)
        return np.concatenate([leaf.live_values() for leaf in self._leaves])

    # -------------------------------------------------------------- mutations
    def _tie_keys(self, arrivals: np.ndarray) -> np.ndarray:
        return -arrivals if self.strict else arrivals

    def _counted_multiply(self, left: SubPermutation, right: SubPermutation) -> SubPermutation:
        self.stats.multiplies += 1
        return multiply(left, right)

    def _build_leaf_product(self, leaf: _Leaf) -> BlockProduct:
        self.stats.blocks_built += 1
        return build_block_product(
            leaf.live_values(), self._tie_keys(leaf.live_arrivals()), self._counted_multiply
        )

    def _touch(self) -> None:
        self._version += 1
        self._root = None
        self._root_semilocal = None
        self._cover_cache = None

    def append(self, values: Sequence[float]) -> None:
        """Append elements at the window's tail (splits into leaf blocks)."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        touched: List[_Leaf] = []
        offset = 0
        while offset < len(values):
            if not self._leaves or len(self._leaves[-1].values) >= self.leaf_size:
                leaf = _Leaf(self._next_leaf_id, self._next_arrival + offset)
                self._next_leaf_id += 1
                self._leaves.append(leaf)
                self._leaf_by_id[leaf.leaf_id] = leaf
            leaf = self._leaves[-1]
            take = min(self.leaf_size - len(leaf.values), len(values) - offset)
            leaf.values = np.concatenate([leaf.values, values[offset : offset + take]])
            offset += take
            if leaf not in touched:
                touched.append(leaf)
        self._next_arrival += len(values)
        self.stats.elements_appended += len(values)
        # Rebuild every touched leaf product through the execution engine —
        # a multi-leaf append is an embarrassingly parallel local phase.  The
        # mapped task is pure (own multiply counter); stats merge afterwards
        # on the driver, so concurrent leaf builds cannot lose increments.
        outcomes = self.backend.map_local(
            _leaf_build_task,
            [(leaf.live_values(), self._tie_keys(leaf.live_arrivals())) for leaf in touched],
        )
        for leaf, (product, multiplies) in zip(touched, outcomes):
            self.stats.blocks_built += 1
            self.stats.multiplies += multiplies
            self.store.put((0, leaf.leaf_id), product)
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
            count -= take
            dropped += take
            self.store.discard((0, head.leaf_id))
            if head.live == 0:
                self._leaves.pop(0)
                del self._leaf_by_id[head.leaf_id]
        self.stats.elements_evicted += dropped
        if dropped:
            self.store.prune_before(self._first_full_leaf_id())
            self._touch()
        return dropped

    def update(self, position: int, value: float) -> None:
        """Replace the window element at ``position`` (0-based from the head).

        Only the containing leaf is rebuilt; the memoized ancestors above it
        are invalidated so the next query recombines just the O(log n) root
        path.
        """
        position = int(position)
        if position < 0 or position >= len(self):
            raise IndexError(f"update position {position} outside window of {len(self)}")
        remaining = position
        for leaf in self._leaves:
            if remaining < leaf.live:
                leaf.values[leaf.evicted + remaining] = float(value)
                self.store.put((0, leaf.leaf_id), self._build_leaf_product(leaf))
                level = 1
                while (1 << level) <= 2 * max(1, self._next_leaf_id):
                    self.store.discard((level, leaf.leaf_id >> level))
                    level += 1
                self.stats.updates += 1
                self._touch()
                return
            remaining -= leaf.live
        raise AssertionError("unreachable: position was bounds-checked")  # pragma: no cover

    # ----------------------------------------------------------------- cover
    def _first_full_leaf_id(self) -> int:
        if not self._leaves:
            return self._next_leaf_id
        head = self._leaves[0]
        return head.leaf_id + (1 if head.evicted else 0)

    def _leaf_product(self, leaf: _Leaf) -> BlockProduct:
        key = (0, leaf.leaf_id)
        cached = self.store.get(key)
        if cached is None:
            cached = self._build_leaf_product(leaf)
            self.store.put(key, cached)
        return cached

    def _node_product(self, level: int, index: int) -> BlockProduct:
        key = (level, index)
        cached = self.store.get(key)
        if cached is not None:
            return cached
        if level == 0:
            return self._leaf_product(self._leaf_by_id[index])
        left = self._node_product(level - 1, 2 * index)
        right = self._node_product(level - 1, 2 * index + 1)
        product = combine_block_products(left, right, self._counted_multiply)
        self.store.put(key, product)
        return product

    def _canonical_nodes(self, lo: int, hi: int) -> List[BlockProduct]:
        """Canonical aligned-node cover of the sealed leaf range ``[lo, hi)``.

        Node sizes are capped near the square root of the span: the seam
        sweep's dense pass is quadratic in the largest part, while the cover
        length only grows logarithmically, so √span nodes balance per-tick
        query cost against cover overhead (and keep the node store's dense
        tables small).
        """
        out: List[BlockProduct] = []
        span = hi - lo
        cap_level = span.bit_length() // 2 if span > 1 else 0
        while lo < hi:
            level = (lo & -lo).bit_length() - 1 if lo > 0 else cap_level
            level = min(level, cap_level)
            while lo + (1 << level) > hi:
                level -= 1
            out.append(self._node_product(level, lo >> level))
            lo += 1 << level
        return out

    def _range_cover(self, i: int, j: int) -> List[BlockProduct]:
        """Cover products of the window element range ``[i, j)``, in order.

        Maximal runs of sealed fully-live leaves reuse the memoized aligned
        nodes; partially evicted, unsealed or range-clipped leaves contribute
        ad-hoc (dense-sized) block products.
        """
        parts: List[BlockProduct] = []
        run: List[int] = []  # [lo, hi) leaf-id range of the pending sealed run

        def flush() -> None:
            if run:
                parts.extend(self._canonical_nodes(run[0], run[1]))
                run.clear()

        pos = 0
        for leaf in self._leaves:
            start, end = pos, pos + leaf.live
            pos = end
            if end <= i or start >= j:
                continue
            s, e = max(i, start), min(j, end)
            whole = s == start and e == end
            if whole and leaf.evicted == 0 and len(leaf.values) >= self.leaf_size:
                if not run:
                    run.extend([leaf.leaf_id, leaf.leaf_id + 1])
                else:
                    run[1] = leaf.leaf_id + 1
                continue
            flush()
            if whole:
                parts.append(self._leaf_product(leaf))
            else:
                lo_off = leaf.evicted + (s - start)
                hi_off = leaf.evicted + (e - start)
                arrivals = leaf.start_arrival + np.arange(lo_off, hi_off, dtype=np.int64)
                self.stats.blocks_built += 1
                parts.append(
                    build_block_product(
                        leaf.values[lo_off:hi_off],
                        self._tie_keys(arrivals),
                        self._counted_multiply,
                    )
                )
        flush()
        return parts

    def _cover(self) -> List[BlockProduct]:
        """The O(log n) cover products of the whole live window."""
        return self._range_cover(0, len(self))

    # ---------------------------------------------------------------- queries
    def root_product(self) -> BlockProduct:
        """The full window product, folded from the cover and cached.

        The fold is a balanced pairwise reduction (order-preserving):
        left-deep accumulation would pay a near-full-size multiply per part,
        the balanced tree pays the usual geometric total.
        """
        if self._root is not None and self._root_version == self._version:
            return self._root
        parts = self._cover()
        if not parts:
            product = empty_block_product()
        else:
            while len(parts) > 1:
                parts = [
                    combine_block_products(parts[i], parts[i + 1], self._counted_multiply)
                    if i + 1 < len(parts)
                    else parts[i]
                    for i in range(0, len(parts), 2)
                ]
            product = parts[0]
        self._root = product
        self._root_version = self._version
        self.stats.root_rebuilds += 1
        return product

    def to_semilocal(self) -> SemiLocalLIS:
        """The window's value-interval :class:`SemiLocalLIS` (root product).

        Bit-identical to ``value_interval_matrix(window, strict=strict)`` —
        the recomposition only re-brackets the same associative product.
        """
        if self._root_semilocal is None or self._root_version != self._version:
            root = self.root_product()
            self._root_semilocal = SemiLocalLIS(matrix=root.matrix, kind="value", length=root.size)
        return self._root_semilocal

    #: Above this many distinct left corners, folding the root once beats
    #: one batched seam sweep.
    _SWEEP_BATCH_LIMIT = 16

    def _cover_with_slots(self):
        """The window cover plus each part's global key ranks, version-cached.

        Every query of one tick shares the same cover and relabelling, so the
        O(m log m) key merge happens once per mutation, not once per query.
        """
        if getattr(self, "_cover_cache", None) is not None and self._cover_cache[0] == self._version:
            return self._cover_cache[1:]
        parts = self._cover()
        m, slots = _part_slots(parts)
        self._cover_cache = (self._version, parts, slots, m)
        return parts, slots, m

    def rank_scores(self, x, y) -> np.ndarray:
        """Batched semi-local scores over rank windows ``[x, y)`` (exact).

        Served from the cached root product when one is fresh; otherwise one
        batched seam sweep over the cover (one row per distinct left corner),
        falling back to a root fold for very wide batches.
        """
        m = len(self)
        x, y = validate_intervals(x, y, m, what="rank interval")
        if self._root is not None and self._root_version == self._version:
            return self.to_semilocal().score(x, y)
        distinct, row_of = np.unique(x, return_inverse=True)
        if len(distinct) > self._SWEEP_BATCH_LIMIT:
            return self.to_semilocal().score(x, y)
        parts, slots, cover_m = self._cover_with_slots()
        self.stats.seam_sweeps += len(distinct)
        D = multi_cover_scores(parts, slots, cover_m, distinct)
        return D[row_of, y]

    def lis_length(self) -> int:
        """The LIS of the current window (the ``(0, m)`` corner score)."""
        m = len(self)
        if m == 0:
            return 0
        return int(self.rank_scores(0, m)[0])

    def substring_scores(self, i, j) -> np.ndarray:
        """Batched LIS of the window *subsegments* ``[i, j)`` (position space).

        Position restriction cannot be read off the value-interval root, but
        it is a sub-range of the split order — each query runs one seam sweep
        over the cover of its element range (ad-hoc edge blocks plus the
        memoized aligned nodes inside).
        """
        i, j = validate_intervals(i, j, len(self), what="substring window")
        out = np.empty(len(i), dtype=np.int64)
        for idx in range(len(i)):
            lo, hi = int(i[idx]), int(j[idx])
            if lo >= hi:
                out[idx] = 0
                continue
            parts = self._range_cover(lo, hi)
            span = sum(part.size for part in parts)
            self.stats.seam_sweeps += 1
            out[idx] = cover_scores(parts, 0, np.asarray([span], dtype=np.int64))[0]
        return out

    def window_sweep(self, width: int, step: int = 1) -> np.ndarray:
        """Scores of every ``width``-wide rank window, strided by ``step``.

        Sweeps touch every left corner, so they are answered from the
        materialised root product (cached until the next mutation).
        """
        semilocal = self.to_semilocal()
        m = len(self)
        width = int(width)
        step = int(step)
        if width < 1 or width > m:
            raise ValueError(f"window width must satisfy 1 <= width <= {m}, got {width}")
        if step < 1:
            raise ValueError(f"window step must be >= 1, got {step}")
        starts = np.arange(0, m - width + 1, step, dtype=np.int64)
        return semilocal.score(starts, starts + width)

    def counters(self) -> Dict[str, int]:
        """JSON-safe cost/occupancy counters (artifact ``streaming`` section)."""
        doc = dict(self.stats.counters())
        doc["window"] = len(self)
        doc["leaves"] = len(self._leaves)
        doc["node_store"] = self.store.counters()
        doc["nbytes"] = int(self.nbytes)
        return doc
