"""The MPC model simulator: machines, rounds, space and communication."""

from .accounting import ClusterStats, RoundRecord
from .cluster import DistributedArray, MPCCluster
from .errors import MachineCountError, MPCError, ScalabilityError, SpaceExceededError
from .primitives import (
    broadcast,
    inverse_permutation,
    mpc_sort,
    offline_rank_search,
    prefix_sum,
)

__all__ = [
    "ClusterStats",
    "RoundRecord",
    "DistributedArray",
    "MPCCluster",
    "MPCError",
    "SpaceExceededError",
    "ScalabilityError",
    "MachineCountError",
    "broadcast",
    "inverse_permutation",
    "mpc_sort",
    "offline_rank_search",
    "prefix_sum",
]
