"""Sequential (sub)unit-Monge multiplication in Tiskin's seaweed framework.

The entry point is :func:`multiply`, which accepts arbitrary sub-permutation
matrices.  Two engines implement the full-permutation product, selected
through a :class:`~repro.core.plan.MultiplyPlan`:

* **iterative** (default, :func:`multiply_permutations_iterative`): an
  allocation-lean bottom-up scheduler.  The instance is split top-down into
  an explicit H-ary block tree (the maps ``M_A``/``M_B`` of the paper's
  Section 3.1); each leaf size is solved by one batched dense product
  (:func:`~repro.core.dense.multiply_dense_batch`) over all leaves of that
  size; every internal node is then merged bottom-up with the O(m)
  *staircase merge* kernel
  (:func:`_staircase_merge_kernel`) — the H-ary level merge decomposes into
  pairwise merges by associativity of ``⊡``.  Per-level point sets stay
  sorted, so each merge builds its rank structures by merging the previous
  level's sorted arrays instead of re-sorting, and all positional scatter
  temporaries come from one reusable :class:`ScratchArena`.
* **reference** (:func:`multiply_permutations_reference`): the original
  recursive divide-and-conquer retained verbatim as a correctness oracle —
  split ``P_A`` into ``H`` column blocks and ``P_B`` into ``H`` row blocks,
  recurse, and merge with the generic colored combine engine of
  :mod:`repro.core.combine` (Lemmas 3.1-3.10).

Both engines are bit-identical on every input (the (sub)unit-Monge product
is unique); the property tests in ``tests/test_seaweed.py`` and the
``python -m repro perf`` regression subsystem pin that identity.

The staircase merge of two sub-results ``P_0`` (color 0) and ``P_1``
(color 1) rests on Lemma 3.2 specialised to ``H = 2``: with
``delta(i, j) = F_1(i, j) - F_0(i, j)``, ``delta`` is non-increasing in both
``i`` and ``j``, so the region where ``F_1`` attains the minimum is bounded by
a monotone staircase ``t(i) = min{j : delta(i, j) <= 0}``.  One two-pointer
walk computes ``t`` (and ``delta`` on it) in O(m); the product's points are
then read off by finite differences of ``PΣ_C`` — sub-result points strictly
inside a pure region survive unchanged (Lemma 3.10) and the remaining rows
take the unique seam cell whose density is 1.

Sub-permutation inputs are first padded to full permutations exactly as in
the paper's Section 4.1 and the padding is stripped from the result
afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .combine import combine_colored
from .dense import multiply_dense, multiply_dense_batch
from .permutation import EMPTY, Permutation, SubPermutation
from .plan import MultiplyPlan, resolve_plan
from ..obs.metrics import get_registry

# Engine metrics, recorded once per multiply (never per merge) so the
# instrumentation stays invisible to the perf regression gate.
_MULTIPLIES = get_registry().counter(
    "repro_multiply_total", "Iterative multiplies run in this process"
)
_MERGES = get_registry().counter(
    "repro_multiply_merges_total", "Staircase merges folded by the iterative engine"
)
_LEAVES = get_registry().counter(
    "repro_multiply_leaves_total", "Dense-oracle leaves solved by the iterative engine"
)
_ARENA_GROWS = get_registry().counter(
    "repro_arena_grows_total", "ScratchArena buffer (re)allocations"
)
_ARENA_REUSES = get_registry().counter(
    "repro_arena_reuses_total", "ScratchArena buffer handouts served without allocating"
)
_ARENA_BYTES = get_registry().gauge(
    "repro_arena_bytes", "Resident bytes of the most recently used ScratchArena"
)

__all__ = [
    "BlockSplit",
    "split_into_blocks",
    "expand_block_results",
    "multiply_permutations",
    "multiply_permutations_reference",
    "multiply_permutations_iterative",
    "pad_to_permutations",
    "strip_padding",
    "multiply",
    "ScratchArena",
]

#: Below this size the dense oracle is at least as fast as the recursion
#: (historical reference-engine default; plans default to a tuned value).
DEFAULT_BASE_SIZE = 64


@dataclass
class BlockSplit:
    """The result of splitting a ``(P_A, P_B)`` pair into ``H`` subproblems.

    Attributes
    ----------
    a_blocks, b_blocks:
        The compacted square permutations ``P'_{A,q}`` and ``P'_{B,q}``.
    row_maps:
        ``row_maps[q][r_local]`` is the parent row of local row ``r_local`` of
        subproblem ``q`` (the inverse mapping ``M_A^{-1}`` of the paper).
    col_maps:
        ``col_maps[q][c_local]`` is the parent column of local column
        ``c_local`` of subproblem ``q`` (``M_B^{-1}``).
    boundaries:
        Column boundaries of ``P_A`` / row boundaries of ``P_B`` used for the
        split (length ``H + 1``).
    """

    a_blocks: List[Permutation]
    b_blocks: List[Permutation]
    row_maps: List[np.ndarray]
    col_maps: List[np.ndarray]
    boundaries: np.ndarray

    @property
    def num_blocks(self) -> int:
        return len(self.a_blocks)


def block_boundaries(n: int, num_blocks: int) -> np.ndarray:
    """Near-equal integer boundaries ``0 = b_0 <= ... <= b_H = n``."""
    return np.linspace(0, n, num_blocks + 1).round().astype(np.int64)


def split_into_blocks(pa: Permutation, pb: Permutation, num_blocks: int) -> BlockSplit:
    """Split ``P_A`` by columns and ``P_B`` by rows into ``num_blocks`` pairs."""
    n = pa.size
    if pb.size != n:
        raise ValueError("operands must have the same size")
    bounds = block_boundaries(n, num_blocks)

    a_row_to_col = np.asarray(pa.row_to_col)
    b_row_to_col = np.asarray(pb.row_to_col)

    a_blocks: List[Permutation] = []
    b_blocks: List[Permutation] = []
    row_maps: List[np.ndarray] = []
    col_maps: List[np.ndarray] = []

    for q in range(num_blocks):
        lo, hi = int(bounds[q]), int(bounds[q + 1])
        # --- columns [lo, hi) of P_A; compact empty rows --------------------
        mask_a = (a_row_to_col >= lo) & (a_row_to_col < hi)
        rows_q = np.flatnonzero(mask_a).astype(np.int64)  # sorted parent rows
        local_a = a_row_to_col[rows_q] - lo
        a_blocks.append(Permutation(local_a, validate=False))
        row_maps.append(rows_q)
        # --- rows [lo, hi) of P_B; compact empty columns --------------------
        cols_block = b_row_to_col[lo:hi]
        cols_sorted = np.sort(cols_block)
        local_b = np.searchsorted(cols_sorted, cols_block)
        b_blocks.append(Permutation(local_b.astype(np.int64), validate=False))
        col_maps.append(cols_sorted.astype(np.int64))

    return BlockSplit(a_blocks, b_blocks, row_maps, col_maps, bounds)


def expand_block_results(
    block_results: Sequence[SubPermutation],
    split: BlockSplit,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand ``P'_{C,q}`` back to parent coordinates as colored points.

    Returns ``(rows, cols, colors)`` parallel arrays describing the union of
    the expanded sub-results ``P_{C,q}`` (the colored permutation of §3.2).
    """
    all_rows: List[np.ndarray] = []
    all_cols: List[np.ndarray] = []
    all_colors: List[np.ndarray] = []
    for q, result in enumerate(block_results):
        local_rows, local_cols = result.points()
        all_rows.append(split.row_maps[q][local_rows])
        all_cols.append(split.col_maps[q][local_cols])
        all_colors.append(np.full(len(local_rows), q, dtype=np.int64))
    if not all_rows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    return (
        np.concatenate(all_rows),
        np.concatenate(all_cols),
        np.concatenate(all_colors),
    )


# --------------------------------------------------------------------------
# The retained recursive reference engine (correctness oracle)
# --------------------------------------------------------------------------

def multiply_permutations_reference(
    pa: Permutation,
    pb: Permutation,
    *,
    fanin: int = 2,
    base_size: int = DEFAULT_BASE_SIZE,
    dense_table_limit: Optional[int] = None,
) -> Permutation:
    """``P_A ⊡ P_B`` by the paper's recursive divide-and-conquer (§3.1).

    Retained as the reference oracle for the iterative engine: same split,
    same dense leaf oracle, but the H-ary merge runs through the generic
    colored combine engine and the levels unwind by Python recursion.
    ``dense_table_limit`` tunes the combine engine's dense-table budget
    (``None`` keeps the module default).
    """
    if fanin < 2:
        raise ValueError("fanin must be at least 2")
    n = pa.size
    if pb.size != n:
        raise ValueError("operands must have the same size")
    if n == 0:
        return Permutation(np.empty(0, dtype=np.int64), validate=False)
    if n <= max(base_size, fanin):
        return multiply_dense(pa, pb).as_permutation()

    num_blocks = min(fanin, n)
    split = split_into_blocks(pa, pb, num_blocks)
    block_results = [
        multiply_permutations_reference(
            a_blk, b_blk, fanin=fanin, base_size=base_size,
            dense_table_limit=dense_table_limit,
        )
        for a_blk, b_blk in zip(split.a_blocks, split.b_blocks)
    ]
    rows, cols, colors = expand_block_results(block_results, split)
    merged = combine_colored(
        rows, cols, colors, num_blocks, n, n, dense_table_limit=dense_table_limit
    )
    return merged.as_permutation()


# --------------------------------------------------------------------------
# The iterative allocation-lean engine
# --------------------------------------------------------------------------

class ScratchArena:
    """Reusable int64 workspace for the iterative engine's merges.

    One multiply allocates every positional-scatter temporary (merge
    positions, local ranks, the colored local permutation and its inverse)
    from this arena instead of the heap: named buffers grow to the high-water
    mark once and are handed out as slice views afterwards.  A shared
    ``0..capacity`` ramp serves every ``arange`` the merges need.
    """

    __slots__ = ("_buffers", "_ramp", "grows", "reuses")

    def __init__(self) -> None:
        self._buffers = {}
        self._ramp = np.empty(0, dtype=np.int64)
        self.grows = 0
        self.reuses = 0

    def take(self, name: str, size: int) -> np.ndarray:
        """A length-``size`` int64 view of the named buffer (grown if needed)."""
        buf = self._buffers.get(name)
        if buf is None or len(buf) < size:
            buf = np.empty(max(size, 16), dtype=np.int64)
            self._buffers[name] = buf
            self.grows += 1
        else:
            self.reuses += 1
        return buf[:size]

    def ramp(self, size: int) -> np.ndarray:
        """A read-only view of ``arange(size)`` (shared across merges)."""
        if len(self._ramp) < size:
            self._ramp = np.arange(max(size, 16), dtype=np.int64)
            self.grows += 1
        else:
            self.reuses += 1
        return self._ramp[:size]

    @property
    def nbytes(self) -> int:
        """Resident bytes of the arena (observability/testing)."""
        return int(self._ramp.nbytes) + sum(buf.nbytes for buf in self._buffers.values())


def _staircase_merge_kernel(
    perm: Sequence[int],
    color: Sequence[int],
    col_row: Sequence[int],
    col_color: Sequence[int],
    m: int,
) -> List[int]:
    """Merge the colored local permutation into its product (O(m) walk).

    ``perm``/``color`` give each local row's point column and operand color
    (0 = left/earlier block, 1 = right/later block); ``col_row``/``col_color``
    are the inverse view.  Implements the ``H = 2`` instance of Lemma 3.2:

    * two-pointer pass computes the staircase ``t(i) = min{j : delta <= 0}``
      (``delta = F_1 - F_0`` is non-increasing in both arguments, so the
      pointer only moves forward) together with ``dval(i) = delta(i, t(i))``;
    * a second pass reads the product off by finite differences of
      ``PΣ_C = min(F_0, F_1)``: color-0 points with column ``< t(r+1) - 1``
      and color-1 points with column ``>= t(r)`` survive unchanged
      (Lemma 3.10); each remaining row takes the unique seam cell in
      ``[t(r+1) - 1, t(r) - 1]`` whose 4-corner density is 1, located with
      the O(1) corner identities on ``dval`` — total extra work is the
      staircase length, so the whole kernel is O(m).

    Operates on plain Python lists (the walk is branchy scalar work where
    list indexing beats NumPy scalar indexing by a wide margin).
    """
    t = [0] * (m + 1)
    dval = [0] * (m + 1)
    j = 0
    val = 0
    for i in range(m - 1, -1, -1):
        ci = perm[i]
        if color[i] == 0:
            if ci >= j:
                val += 1
        elif ci < j:
            val += 1
        while val > 0:
            rj = col_row[j]
            if col_color[j] == 1:
                val += (1 if rj >= i else 0) - 1
            else:
                val -= 1 if rj >= i else 0
            j += 1
        t[i] = j
        dval[i] = val

    out = [0] * m
    for r in range(m):
        u = t[r]
        v = t[r + 1]
        cr = perm[r]
        if color[r] == 0:
            if cr <= v - 2:  # strictly inside the F_0 region (Lemma 3.10)
                out[r] = cr
                continue
        elif cr >= u:  # strictly inside the F_1 region
            out[r] = cr
            continue
        if u == v:  # degenerate staircase step: single seam cell
            out[r] = u - 1
            continue
        # Seam band [v-1, u-1]: density(r, v-1) = [col v-1 holds (r, color 0)]
        # - dval(r+1); interior cells v <= c <= u-2 carry density
        # [color0 & row >= r] + [color1 & row <= r]; cell u-1 takes the rest.
        if v >= 1 and dval[r + 1] == 0 and col_color[v - 1] == 0 and col_row[v - 1] == r:
            out[r] = v - 1
            continue
        for c in range(v, u - 1):
            rc = col_row[c]
            if (col_color[c] == 0 and rc >= r) or (col_color[c] == 1 and rc <= r):
                out[r] = c
                break
        else:
            out[r] = u - 1
    return out


#: A node product in the iterative engine: points sorted by row, their
#: columns in row order, and the sorted column support (reused by the parent
#: merge instead of re-sorting).
_NodeProduct = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _merge_node_products(
    left: _NodeProduct, right: _NodeProduct, arena: ScratchArena
) -> _NodeProduct:
    """``left ⊡ right`` for two adjacent sub-results in shared coordinates.

    Both operands are sub-permutations over the parent node's index space
    with disjoint row and column supports.  The union is compacted to a
    local colored permutation (rank structures come from merging the
    operands' already-sorted arrays), multiplied with the staircase kernel,
    and expanded back — all scatter temporaries live in the arena.
    """
    rows0, cols0, sorted_cols0 = left
    rows1, cols1, sorted_cols1 = right
    m0, m1 = len(rows0), len(rows1)
    if m0 == 0:
        return right
    if m1 == 0:
        return left
    m = m0 + m1

    ramp0 = arena.ramp(m0)
    ramp1 = arena.ramp(m1)

    # Merge the sorted, disjoint row supports: each side's slot in the union
    # is its own rank plus the number of other-side entries before it.
    pos0 = arena.take("pos0", m0)
    pos1 = arena.take("pos1", m1)
    np.add(np.searchsorted(rows1, rows0), ramp0, out=pos0)
    np.add(np.searchsorted(rows0, rows1), ramp1, out=pos1)
    union_rows = np.empty(m, dtype=np.int64)
    union_rows[pos0] = rows0
    union_rows[pos1] = rows1

    # Same merge for the sorted column supports.
    cpos0 = arena.take("cpos0", m0)
    cpos1 = arena.take("cpos1", m1)
    np.add(np.searchsorted(sorted_cols1, sorted_cols0), ramp0, out=cpos0)
    np.add(np.searchsorted(sorted_cols0, sorted_cols1), ramp1, out=cpos1)
    union_cols = np.empty(m, dtype=np.int64)
    union_cols[cpos0] = sorted_cols0
    union_cols[cpos1] = sorted_cols1

    # The union as a colored local permutation and its inverse view.
    perm = arena.take("perm", m)
    perm[pos0] = np.searchsorted(union_cols, cols0)
    perm[pos1] = np.searchsorted(union_cols, cols1)
    color = arena.take("color", m)
    color[pos0] = 0
    color[pos1] = 1
    col_row = arena.take("col_row", m)
    col_row[perm] = arena.ramp(m)
    col_color = arena.take("col_color", m)
    col_color[perm] = color

    local = _staircase_merge_kernel(
        perm.tolist(), color.tolist(), col_row.tolist(), col_color.tolist(), m
    )
    out_cols = union_cols[np.asarray(local, dtype=np.int64)]
    return union_rows, out_cols, union_cols


def multiply_permutations_iterative(
    pa: Permutation,
    pb: Permutation,
    plan: Optional[MultiplyPlan] = None,
    *,
    arena: Optional[ScratchArena] = None,
) -> Permutation:
    """``P_A ⊡ P_B`` by the allocation-lean bottom-up scheduler.

    Phase 1 materialises the H-ary split tree top-down (an explicit worklist,
    no Python recursion) and solves its leaves with one batched dense product
    per leaf size; phase 2 walks the internal nodes in reverse creation
    order — children always precede parents — folding each node's children
    with pairwise staircase merges (a balanced fold: associativity of ``⊡``
    makes the bracketing free).
    """
    plan = plan if plan is not None else MultiplyPlan()
    n = pa.size
    if pb.size != n:
        raise ValueError("operands must have the same size")
    if n == 0:
        return Permutation(np.empty(0, dtype=np.int64), validate=False)
    fanin = int(plan.fanin)
    leaf_cap = max(int(plan.base_size), fanin)
    arena = arena if arena is not None else ScratchArena()
    arena_grows0, arena_reuses0 = arena.grows, arena.reuses
    merge_count = 0

    # ---- phase 1: top-down H-ary split into an explicit node tree ---------
    # nodes[nid] = (row_map, col_map) into the parent's index space.
    node_maps: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None]
    children: List[List[int]] = [[]]
    leaf_inputs = {}
    pending = [(0, np.asarray(pa.row_to_col), np.asarray(pb.row_to_col))]
    while pending:
        nid, a, b = pending.pop()
        size = len(a)
        if size <= leaf_cap:
            leaf_inputs[nid] = (a, b)
            continue
        blocks = min(fanin, size)
        bounds = block_boundaries(size, blocks)
        for q in range(blocks):
            lo, hi = int(bounds[q]), int(bounds[q + 1])
            rows_q = np.flatnonzero((a >= lo) & (a < hi))
            local_a = a[rows_q] - lo
            cols_block = b[lo:hi]
            cols_sorted = np.sort(cols_block)
            local_b = np.searchsorted(cols_sorted, cols_block)
            cid = len(node_maps)
            node_maps.append((rows_q, cols_sorted))
            children.append([])
            children[nid].append(cid)
            pending.append((cid, local_a, local_b))

    # All leaves of one size go through one batched dense product.
    products: List[Optional[_NodeProduct]] = [None] * len(node_maps)
    leaves_by_size: Dict[int, List[int]] = {}
    for nid, (a, _) in leaf_inputs.items():
        leaves_by_size.setdefault(len(a), []).append(nid)
    for size, nids in leaves_by_size.items():
        local = multiply_dense_batch(
            np.stack([leaf_inputs[nid][0] for nid in nids]),
            np.stack([leaf_inputs[nid][1] for nid in nids]),
        )
        ident = np.arange(size, dtype=np.int64)
        for nid, rtc in zip(nids, local):
            products[nid] = (ident, rtc, ident)

    # ---- phase 2: bottom-up merge (reverse creation order) ----------------
    for nid in range(len(node_maps) - 1, -1, -1):
        if nid in leaf_inputs:
            continue
        parts: List[_NodeProduct] = []
        for cid in children[nid]:
            child_rows, child_cols, child_sorted = products[cid]
            products[cid] = None  # free each child once its parent consumes it
            row_map, col_map = node_maps[cid]
            parts.append(
                (row_map[child_rows], col_map[child_cols], col_map[child_sorted])
            )
        while len(parts) > 1:
            merge_count += len(parts) // 2
            parts = [
                _merge_node_products(parts[i], parts[i + 1], arena)
                if i + 1 < len(parts)
                else parts[i]
                for i in range(0, len(parts), 2)
            ]
        products[nid] = parts[0]

    # One registry update per multiply keeps the hot loop untouched.
    _MULTIPLIES.inc()
    if merge_count:
        _MERGES.inc(merge_count)
    _LEAVES.inc(len(leaf_inputs))
    _ARENA_GROWS.inc(arena.grows - arena_grows0)
    _ARENA_REUSES.inc(arena.reuses - arena_reuses0)
    _ARENA_BYTES.set(arena.nbytes)

    rows, cols, _ = products[0]
    out = np.empty(n, dtype=np.int64)
    out[rows] = cols
    return Permutation(out, validate=False)


def multiply_permutations(
    pa: Permutation,
    pb: Permutation,
    *,
    fanin: Optional[int] = None,
    base_size: Optional[int] = None,
    plan: Optional[MultiplyPlan] = None,
) -> Permutation:
    """``P_A ⊡ P_B`` for full permutation matrices of equal size.

    Parameters
    ----------
    fanin:
        Number of subproblems ``H`` per level (the paper uses
        ``H = n^{(1-δ)/10}`` in the MPC setting; sequentially any ``H >= 2``
        is correct and exposed here for the fan-in ablation).  Overrides the
        plan's fan-in when given.
    base_size:
        Instances of at most this size are handed to the dense oracle
        (overrides the plan's crossover when given).
    plan:
        The full :class:`~repro.core.plan.MultiplyPlan` (engine selection and
        tuned knobs).  Defaults to the iterative engine's static defaults.
    """
    resolved = resolve_plan(plan, fanin=fanin, base_size=base_size)
    if resolved.engine == "reference":
        return multiply_permutations_reference(
            pa,
            pb,
            fanin=resolved.fanin,
            base_size=resolved.base_size,
            dense_table_limit=resolved.dense_table_limit,
        )
    return multiply_permutations_iterative(pa, pb, resolved)


# --------------------------------------------------------------------------
# Sub-permutation handling (paper Section 4.1, Theorem 1.2)
# --------------------------------------------------------------------------

@dataclass
class PaddingInfo:
    """Book-keeping needed to strip the Section 4.1 padding from a product."""

    kept_rows_a: np.ndarray  # rows of P_A that were nonzero
    kept_cols_b: np.ndarray  # columns of P_B that were nonzero
    n_rows: int  # original row count of P_A
    n_cols: int  # original column count of P_B
    inner: int  # n2, the padded square size
    num_kept_rows: int
    num_kept_cols: int


def pad_to_permutations(
    pa: SubPermutation, pb: SubPermutation
) -> Tuple[Permutation, Permutation, PaddingInfo]:
    """Pad sub-permutations to full ``n2 x n2`` permutations (paper §4.1)."""
    if pa.n_cols != pb.n_rows:
        raise ValueError(f"inner dimensions do not match: {pa.shape} x {pb.shape}")
    n2 = pa.n_cols

    # Drop zero rows of P_A and zero columns of P_B (they stay zero in P_C).
    kept_rows_a = pa.nonzero_rows()
    a_cols = np.asarray(pa.row_to_col)[kept_rows_a]
    kept_cols_b = pb.nonzero_cols()
    b_col_to_row = pb.col_to_row()
    b_rows = b_col_to_row[kept_cols_b]

    n1p = len(kept_rows_a)
    n3p = len(kept_cols_b)

    # Extend P_A with n2 - n1' rows in front, covering its empty columns
    # (boolean-mask scatter: the complement of a_cols without a sort/merge).
    occupied_a = np.zeros(n2, dtype=bool)
    occupied_a[a_cols] = True
    empty_cols_a = np.flatnonzero(~occupied_a)
    padded_a = np.concatenate([empty_cols_a, a_cols]).astype(np.int64)
    perm_a = Permutation(padded_a, validate=False)

    # Extend P_B with n2 - n3' columns at the back, covering its empty rows.
    padded_b = np.full(n2, EMPTY, dtype=np.int64)
    padded_b[b_rows] = np.arange(n3p, dtype=np.int64)
    empty_rows_b = np.flatnonzero(padded_b == EMPTY)
    padded_b[empty_rows_b] = n3p + np.arange(len(empty_rows_b), dtype=np.int64)
    perm_b = Permutation(padded_b, validate=False)

    info = PaddingInfo(
        kept_rows_a=kept_rows_a,
        kept_cols_b=kept_cols_b,
        n_rows=pa.n_rows,
        n_cols=pb.n_cols,
        inner=n2,
        num_kept_rows=n1p,
        num_kept_cols=n3p,
    )
    return perm_a, perm_b, info


def strip_padding(product: Permutation, info: PaddingInfo) -> SubPermutation:
    """Extract ``P_A ⊡ P_B`` from the padded product (paper §4.1)."""
    rows, cols = product.points()
    offset = info.inner - info.num_kept_rows
    mask = (rows >= offset) & (cols < info.num_kept_cols)
    out_rows = info.kept_rows_a[rows[mask] - offset]
    out_cols = info.kept_cols_b[cols[mask]]
    return SubPermutation.from_points(
        out_rows, out_cols, info.n_rows, info.n_cols, validate=True
    )


def multiply(
    pa: SubPermutation,
    pb: SubPermutation,
    *,
    fanin: Optional[int] = None,
    base_size: Optional[int] = None,
    plan: Optional[MultiplyPlan] = None,
) -> SubPermutation:
    """Implicit (sub)unit-Monge multiplication ``P_A ⊡ P_B`` (Theorems 1.1/1.2).

    Accepts arbitrary (possibly rectangular) sub-permutation matrices; full
    square permutations skip the padding step.  ``plan`` selects the engine
    and tuned knobs (see :class:`~repro.core.plan.MultiplyPlan`);
    ``fanin``/``base_size`` override individual plan fields.
    """
    if (
        isinstance(pa, SubPermutation)
        and isinstance(pb, SubPermutation)
        and pa.n_rows == pa.n_cols == pb.n_rows == pb.n_cols
        and pa.is_full_permutation()
        and pb.is_full_permutation()
    ):
        return multiply_permutations(
            pa.as_permutation(), pb.as_permutation(),
            fanin=fanin, base_size=base_size, plan=plan,
        )
    perm_a, perm_b, info = pad_to_permutations(pa, pb)
    product = multiply_permutations(
        perm_a, perm_b, fanin=fanin, base_size=base_size, plan=plan
    )
    return strip_padding(product, info)
