"""Corollary 1.3.1: exact LCS in O(log n) MPC rounds (Õ(n²) total space).

The reduction is Hunt–Szymanski: every machine generates the matching pairs of
its block of ``S`` against the whole of ``T`` (this is where the corollary
needs ``m = n^{1+δ}`` machines / quadratic total space), the pairs are sorted
by ``(i, -j)`` in O(1) rounds, and the strict LIS of the ``j``-sequence is
computed with the O(log n)-round algorithm of Theorem 1.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..lis.mpc_lis import mpc_lis_length
from ..mpc.cluster import MPCCluster, SORT_ROUNDS
from ..mpc.errors import SpaceExceededError
from ..mpc_monge.constant_round import MongeMPCConfig
from .hunt_szymanski import match_sequence

__all__ = ["MPCLCSResult", "mpc_lcs_length", "lcs_cluster_for"]


@dataclass
class MPCLCSResult:
    """Result of the MPC LCS computation."""

    length: int
    num_matches: int
    match_cluster: MPCCluster


def lcs_cluster_for(
    s_length: int,
    t_length: int,
    num_matches: int,
    delta: float = 0.5,
) -> MPCCluster:
    """A cluster sized for the Hunt–Szymanski instance (Õ(n²) total space).

    Corollary 1.3.1 assumes ``n^{1+δ}`` machines of ``Õ(n^{1-δ})`` space; this
    helper provisions a cluster whose total space fits all matching pairs
    while keeping the per-machine space at ``Õ(n^{1-δ})`` for ``n = |S|+|T|``.
    """
    n = max(1, s_length + t_length)
    space = max(32, math.ceil(2 * (n ** (1.0 - delta)) * max(1.0, math.log2(max(n, 2)))))
    # The merge phase holds, per machine group, the expanded colored union of a
    # pair of blocks plus the sort/tree working state (a small constant factor
    # over the raw match count).
    machines = max(1, math.ceil(6 * max(num_matches, n) / space) + 1)
    return MPCCluster(n, delta, num_machines=machines, space_per_machine=space)


def mpc_lcs_length(
    cluster: MPCCluster,
    s: Sequence,
    t: Sequence,
    config: Optional[MongeMPCConfig] = None,
) -> MPCLCSResult:
    """Exact LCS length in O(log n) rounds, given enough total space.

    ``cluster`` must have total space Ω(#matches); use :func:`lcs_cluster_for`
    to provision one.  Raises :class:`~repro.mpc.errors.SpaceExceededError`
    when the matching pairs do not fit.
    """
    matches = match_sequence(s, t)
    num_matches = len(matches)
    if num_matches and num_matches * 2 > cluster.total_space and cluster.strict_space:
        raise SpaceExceededError(
            -1, num_matches * 2, cluster.total_space,
            "Hunt-Szymanski matches exceed the cluster's total space "
            "(Corollary 1.3.1 needs ~n^{1+delta} machines)",
        )
    # Generating and sorting the pairs: each machine scans its block of S
    # against the (broadcast) alphabet index of T — O(1) rounds.  The load is
    # the true per-machine pair count (2 words per pair), *not* clamped to the
    # space budget: under strict_space=False ablations a clamp would silently
    # under-report the peak load, and under strict accounting a genuine
    # overflow must raise rather than hide.
    per_machine = math.ceil(max(num_matches, 1) / cluster.num_machines) + 1
    cluster.charge_rounds(
        SORT_ROUNDS,
        "lcs:generate+sort",
        words_per_round=2 * max(num_matches, 1),
        max_load=per_machine * 2,
        phase="lcs",
    )
    if num_matches == 0:
        return MPCLCSResult(length=0, num_matches=0, match_cluster=cluster)
    length = mpc_lis_length(cluster, matches, config, strict=True)
    return MPCLCSResult(length=length, num_matches=num_matches, match_cluster=cluster)
