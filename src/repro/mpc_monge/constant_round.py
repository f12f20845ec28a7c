"""The paper's O(1)-round MPC algorithm for unit-Monge multiplication.

This module implements Theorem 1.1: a fully-scalable deterministic MPC
algorithm computing ``P_C = P_A ⊡ P_B`` for permutation matrices, structured
exactly as in Section 3 of the paper:

1. **Split & compact** (§3.1): ``P_A`` is cut into ``H`` column blocks and
   ``P_B`` into ``H`` row blocks; empty rows/columns are removed by sorting
   and relabelling (the maps ``M_A`` / ``M_B``).  O(1) rounds.
2. **Recurse** on the ``H`` compacted pairs in parallel machine groups.  With
   the paper's fan-in ``H = n^{(1-δ)/10}`` the recursion depth is
   ``10δ/(1-δ) = O(1)``; with fan-in 2 it is ``O(log n)`` (the warm-up
   algorithm of §1.4 — see :mod:`repro.mpc_monge.warmup`).
3. **Combine** (§3.2-3.3): expand the sub-results to parent coordinates
   (giving the colored union permutation), compute ``opt`` on the grid lines
   spaced ``G = n^{1-δ}`` apart with the flattened ``H``-ary tree, classify
   the subgrids, and finish every *active* subgrid on a single machine from
   its O(G + H)-sized :class:`~repro.mpc_monge.common.SubgridInstance`.
   Instances are sized and charged one per machine; the simulator then
   solves all of them in one batched search (:func:`_solve_subgrids`),
   which the test-suite checks against ``SubgridInstance.solve``.

Every stage charges rounds, communication and per-machine loads to the
cluster; the returned permutation is the exact product (validated against the
sequential and dense implementations by the test-suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core.combine import ColoredPointSet
from ..core.permutation import Permutation, SubPermutation
from ..core.seaweed import (
    expand_block_results,
    multiply_permutations_iterative,
    split_into_blocks,
)
from ..mpc.cluster import MPCCluster, RANK_SEARCH_ROUNDS, SORT_ROUNDS
from ..mpc.errors import SpaceExceededError
from .common import grid_corners, instance_words

__all__ = [
    "MongeMPCConfig",
    "mpc_multiply",
    "paper_fanin",
    "default_fanin",
    "paper_grid_size",
]

#: Leaf size of the sequential engine in a machine-local base-case solve.
#: Local instances are small (n 96–208 under the ``mpc_lis`` benchmark), and
#: there 64 beats the engine's default 32: the 137 local multiplies of 16
#: ``mpc_lis`` solves took 6.35 ms per solve at 64 against 7.22 ms at 32
#: (one pinned CPU, 64 faster in 12 of 12 alternating runs).
LOCAL_BASE_SIZE = 64


def paper_fanin(n: int, delta: float) -> int:
    """The paper's fan-in ``H = n^{(1-δ)/10}`` (at least 2).

    Note that for every practically simulable ``n`` this rounds to 2 or 3 —
    the exponent ``(1-δ)/10`` is chosen in the paper purely to make the space
    analysis slack, and any fixed polynomial exponent preserves the O(1)
    round/depth structure.  The simulator therefore defaults to
    :func:`default_fanin` (exponent ``(1-δ)/4``, still satisfying the paper's
    constraints ``H² ≤ G`` and ``H⁴ ≤ G·polylog``), which exposes the
    constant-depth behaviour at benchmarkable sizes.
    """
    return max(2, int(round(n ** ((1.0 - delta) / 10.0))))


def default_fanin(n: int, delta: float) -> int:
    """Simulator default fan-in ``H = n^{(1-δ)/4}`` (at least 2)."""
    return max(2, int(round(n ** ((1.0 - delta) / 4.0))))


def paper_grid_size(n: int, delta: float) -> int:
    """The paper's grid spacing ``G = n^{1-δ}`` (at least 1)."""
    return max(1, int(math.ceil(n ** (1.0 - delta))))


@dataclass
class MongeMPCConfig:
    """Tunable parameters of the O(1)-round multiplication.

    All defaults follow the formulas of the paper; the benchmarks override
    individual fields for the fan-in / grid-size / tree-arity ablations.
    """

    #: Number of subproblems merged per recursion level (``H``).  ``None``
    #: selects :func:`default_fanin` (``n^{(1-δ)/4}``); use
    #: :func:`paper_fanin` for the paper's literal ``n^{(1-δ)/10}``.
    fanin: Optional[int] = None
    #: Arity of the flattened tree used for the §3.2 grid-line searches.
    #: ``None`` selects :func:`default_fanin`.
    tree_arity: Optional[int] = None
    #: Grid spacing ``G``.  ``None`` selects the paper's ``n^{1-δ}``.
    grid_size: Optional[int] = None
    #: Subproblems of at most this size are gathered on one machine and
    #: solved locally.  ``None`` selects the cluster's space budget ``s``.
    local_threshold: Optional[int] = None


@dataclass
class _CombineReport:
    """Diagnostics of one combine step (used by tests and benchmarks)."""

    num_colors: int
    grid_size: int
    num_grid_lines: int
    num_subgrids: int
    num_active_subgrids: int
    max_instance_words: int


def _resolve(config: Optional[MongeMPCConfig]) -> MongeMPCConfig:
    return config if config is not None else MongeMPCConfig()


def _recurse_task(
    child: MPCCluster,
    a_blk: Permutation,
    b_blk: Permutation,
    config: MongeMPCConfig,
    depth: int,
) -> Permutation:
    """One fork-group branch of the §3 recursion."""
    return mpc_multiply(child, a_blk, b_blk, config, _depth=depth)


def mpc_multiply(
    cluster: MPCCluster,
    pa: Permutation,
    pb: Permutation,
    config: Optional[MongeMPCConfig] = None,
    *,
    _depth: int = 0,
) -> Permutation:
    """Multiply two permutation matrices in the MPC model (Theorem 1.1).

    The number of rounds charged to ``cluster`` is O(1) for the paper's
    fan-in and ``O(log n)`` for fan-in 2; the per-machine space never exceeds
    the cluster budget ``s = Õ(n^{1-δ})`` (otherwise
    :class:`~repro.mpc.errors.SpaceExceededError` is raised).
    """
    config = _resolve(config)
    n = pa.size
    if pb.size != n:
        raise ValueError("operands must have equal size")
    phase = f"level{_depth}"
    local_threshold = (
        config.local_threshold
        if config.local_threshold is not None
        else cluster.space_per_machine // 2
    )

    fanin = config.fanin if config.fanin is not None else default_fanin(n, cluster.delta)
    fanin = int(max(2, min(fanin, n)))

    # The combine step needs room for its per-line interval state (O(H²)) and
    # for one minimal subgrid instance.  If the requested fan-in does not fit
    # the machine space (possible only for toy instances), degrade it — the
    # algorithm stays correct, only the recursion gets deeper.
    while fanin > 2 and fanin * fanin + 5 * fanin + 16 > cluster.space_per_machine:
        fanin -= 1
    min_combine_space = fanin * fanin + 5 * fanin + 16
    if n <= max(2, local_threshold) or cluster.space_per_machine < min_combine_space:
        # Base case: the whole subproblem fits in one machine.
        cluster.charge_round(
            "local:gather", words=2 * n, max_load=2 * n, phase=phase
        )
        return multiply_permutations_iterative(pa, pb, base_size=LOCAL_BASE_SIZE)

    # ------------------------------------------------------------- §3.1 split
    # Sorting the nonzero row indices of every P_{A,q} (and the columns of
    # P_{B,q}) and relabelling yields the compaction maps M_A / M_B.
    block_load = math.ceil(2 * n / cluster.num_machines) + fanin
    cluster.charge_rounds(
        SORT_ROUNDS, "split:sort", words_per_round=2 * n, max_load=block_load, phase=phase
    )
    cluster.charge_round("split:relabel", words=2 * n, max_load=block_load, phase=phase)
    split = split_into_blocks(pa, pb, fanin)

    # --------------------------------------------------------------- recurse
    # The H compacted subproblems compose in parallel machine groups; the
    # join keeps the max-rounds / sum-words parallel accounting.
    results: List[Permutation] = cluster.run_forked(
        [
            (_recurse_task, (a_blk, b_blk, config, _depth + 1))
            for a_blk, b_blk in zip(split.a_blocks, split.b_blocks)
        ],
        label=f"recurse@{phase}",
    )

    # --------------------------------------------------------------- combine
    rows, cols, colors = expand_block_results(results, split)
    cluster.charge_round("combine:expand", words=3 * n, max_load=block_load, phase=phase)
    merged, _report = mpc_combine(
        cluster, rows, cols, colors, fanin, n, config, phase=phase
    )
    return merged.as_permutation()


def mpc_combine(
    cluster: MPCCluster,
    rows: np.ndarray,
    cols: np.ndarray,
    colors: np.ndarray,
    num_colors: int,
    n: int,
    config: Optional[MongeMPCConfig] = None,
    *,
    phase: str = "combine",
) -> Tuple[SubPermutation, _CombineReport]:
    """Merge ``H`` expanded sub-results into the product (§3.2 + §3.3).

    ``rows``/``cols``/``colors`` describe the colored union permutation.  The
    function charges the grid-line and subgrid rounds to ``cluster`` and
    returns the merged sub-permutation together with a diagnostics report.
    Every active subgrid is sized and charged as its own one-machine
    instance, and all of them are then solved in one batched pass.
    """
    config = _resolve(config)
    s = cluster.space_per_machine
    H = int(num_colors)

    grid_size = (
        config.grid_size if config.grid_size is not None else paper_grid_size(n, cluster.delta)
    )
    # An active subgrid instance stores ~2G band points (3 words each) plus
    # O(H) offsets; keep G small enough for one machine.
    grid_size = int(max(1, min(grid_size, max(1, (s - 3 * H - 16) // 8), n)))
    tree_arity = (
        config.tree_arity if config.tree_arity is not None else default_fanin(n, cluster.delta)
    )
    tree_arity = int(max(2, tree_arity))

    point_set = ColoredPointSet(rows, cols, colors, H, n, n)
    grid = grid_corners(n, grid_size)
    num_lines = len(grid)

    # ------------------------------------------------------ §3.2 grid lines
    # Build the flattened tree over the colored union permutation (one O(1)-
    # round sort per level of the implicit representation) and descend it for
    # every pair (q, r) on every grid line.
    tree_height = max(1, math.ceil(math.log(max(n, 2), tree_arity)))
    pair_searches = num_lines * H * (H - 1)
    package_words = min(pair_searches * tree_arity * H, cluster.total_space)
    cluster.charge_rounds(
        SORT_ROUNDS, "gridline:tree-build", words_per_round=3 * n,
        max_load=math.ceil(3 * n / cluster.num_machines), phase=phase,
    )
    per_line_state = H * H + 2 * H
    for _ in range(tree_height):
        cluster.charge_rounds(
            RANK_SEARCH_ROUNDS,
            "gridline:tree-descent",
            words_per_round=max(package_words, 1),
            max_load=min(s, max(per_line_state * tree_arity, 1)),
            phase=phase,
        )
    # The per-line output is the opt(*, jG) interval structure (O(H) words).
    cluster.charge_round(
        "gridline:intervals", words=num_lines * 2 * H, max_load=per_line_state, phase=phase
    )

    # The simulator evaluates opt at the grid corners directly; these values
    # are exactly what the cmp/interval computation above produces.  It also
    # solves the active subgrids below on this global point set: inside a
    # subgrid, its instance's local evaluation equals the global one.
    corner_i, corner_j = np.meshgrid(grid, grid, indexing="ij")
    opt_corner = point_set.opt(corner_i.ravel(), corner_j.ravel()).reshape(
        num_lines, num_lines
    )

    # ------------------------------------------------- §3.3 subgrid analysis
    top_left = opt_corner[:-1, :-1]
    same = (
        (top_left == opt_corner[1:, :-1])
        & (top_left == opt_corner[:-1, 1:])
        & (top_left == opt_corner[1:, 1:])
    )
    active_mask = ~same
    active_i, active_j = np.nonzero(active_mask)
    num_subgrids = (num_lines - 1) ** 2

    # Survivors in inactive subgrids: by Lemma 3.10 the product restricted to a
    # subgrid with constant opt = a equals P_{C,a}; a union point survives
    # there iff its color equals a.
    row_block = np.searchsorted(grid, rows, side="right") - 1
    col_block = np.searchsorted(grid, cols, side="right") - 1
    in_active = active_mask[row_block, col_block]
    survivor_opt = top_left[row_block, col_block]
    survive = (~in_active) & (colors == survivor_opt)
    cluster.charge_round(
        "subgrid:classify", words=3 * n,
        max_load=math.ceil(3 * n / cluster.num_machines), phase=phase,
    )

    # One instance per active subgrid, each on its own machine: the points of
    # its row band and its column band plus O(H) corner offsets.
    row_band = np.diff(np.searchsorted(np.sort(rows), grid))
    col_band = np.diff(np.searchsorted(np.sort(cols), grid))
    words = instance_words(row_band[active_i] + col_band[active_j], H)
    for load in words.tolist():
        cluster.stats.record_load(load)
        if load > s and cluster.strict_space:
            raise SpaceExceededError(-1, load, s, "subgrid instance")
    max_instance_words = int(words.max(initial=0))
    total_instance_words = int(words.sum())
    found_rows, found_cols = _solve_subgrids(
        point_set, grid[active_i], grid[active_i + 1], grid[active_j], grid[active_j + 1]
    )

    # Rounds of the §3.3 stage: instance sizing + greedy packing, instance
    # population, and reporting the discovered points.
    cluster.charge_round(
        "subgrid:pack", words=2 * max(len(active_i), 1), max_load=max(max_instance_words, 1), phase=phase
    )
    cluster.charge_round(
        "subgrid:populate", words=max(total_instance_words, 1),
        max_load=max(max_instance_words, 1), phase=phase,
    )
    cluster.charge_round(
        "subgrid:report", words=n, max_load=max(max_instance_words, 1), phase=phase
    )

    all_rows = np.concatenate([rows[survive], found_rows])
    all_cols = np.concatenate([cols[survive], found_cols])
    merged = SubPermutation.from_points(all_rows, all_cols, n, n, validate=True)
    report = _CombineReport(
        num_colors=H,
        grid_size=grid_size,
        num_grid_lines=num_lines,
        num_subgrids=num_subgrids,
        num_active_subgrids=int(len(active_i)),
        max_instance_words=max_instance_words,
    )
    return merged, report


def _solve_subgrids(
    point_set: ColoredPointSet,
    r0: np.ndarray,
    r1: np.ndarray,
    c0: np.ndarray,
    c1: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The product's points inside the subgrids ``[r0, r1) × [c0, c1)``.

    ``SubgridInstance.solve`` for every subgrid at once: each row of each
    row band is one window ``(row, c0, c1)``.  A row keeps its window if
    ``PΣ_C(row, ·) − PΣ_C(row + 1, ·)`` is 0 at ``c0`` and at least 1 at
    ``c1``; one vectorised binary search then halves every kept window to
    the column of the row's point.  Returns ``(rows, cols)``.
    """
    heights = r1 - r0
    owner = np.repeat(np.arange(len(heights)), heights)
    first = np.repeat(np.cumsum(heights) - heights, heights)
    rows = r0[owner] + (np.arange(len(owner)) - first)
    lo, hi = c0[owner], c1[owner]

    def step(columns: np.ndarray, at_rows: np.ndarray) -> np.ndarray:
        # PΣ_C(r, c) − PΣ_C(r + 1, c) is 1 iff row r's point lies left of c.
        sig = point_set.sigma(np.concatenate([at_rows, at_rows + 1]), np.tile(columns, 2))
        return sig[: len(at_rows)] - sig[len(at_rows) :]

    # A row keeps the window that holds its point.  A row can have several
    # windows, so they are tested n // 2 at a time: no corner batch exceeds
    # the 2n corners of one search step below, whose rows have one window.
    inside = np.zeros(len(rows), dtype=bool)
    per_pass = max(1, point_set.n_rows // 2)
    for start in range(0, len(rows), per_pass):
        part = slice(start, start + per_pass)
        ends = step(np.concatenate([lo[part], hi[part]]), np.tile(rows[part], 2))
        half = len(ends) // 2
        inside[part] = (ends[:half] == 0) & (ends[half:] >= 1)
    rows, lo, hi = rows[inside], lo[inside], hi[inside]
    while np.any(lo + 1 < hi):
        mid = (lo + hi) // 2
        take_hi = step(mid, rows) >= 1
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return rows, hi - 1
