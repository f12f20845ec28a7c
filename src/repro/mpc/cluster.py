"""A deterministic MPC cluster simulator with faithful cost accounting.

The simulator models the MPC regime of the paper (Section 1.1): ``m = O(n^δ)``
machines with ``s = Õ(n^{1-δ})`` words of memory each.  Data lives in
:class:`DistributedArray` objects that are partitioned across machines; every
cluster operation

* charges the number of **rounds** the corresponding MPC primitive needs,
* charges the **words communicated** in each of those rounds,
* checks that no machine ever holds more than its **space budget** and raises
  :class:`~repro.mpc.errors.SpaceExceededError` otherwise,
* records the peak per-machine load for the scalability experiments.

Rounds and loads are always derived from deterministic quantities (chunk
sizes, word counts) and recorded in
:class:`~repro.mpc.accounting.ClusterStats`.  Primitives are phrased as
*local phases* (per-machine chunk work, one loop over the machines)
stitched together by *explicit exchange steps* (the communication the round
charges pay for).  The simulated data placement is the real data placement:
no primitive materialises the global array as an intermediate.
``fork()``/``join()`` machine groups run one after another in the driver,
and :meth:`MPCCluster.join` composes their statistics as if they had run in
parallel.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .accounting import ClusterStats
from .errors import MachineCountError, SpaceExceededError

__all__ = ["DistributedArray", "MPCCluster"]


# Round costs of the basic deterministic primitives (GSZ11); exposed as module
# constants so that tests and the analysis module can reason about them.
SORT_ROUNDS = 3
ROUTE_ROUNDS = 1
BROADCAST_ROUNDS_PER_LEVEL = 1
PREFIX_SUM_ROUNDS_PER_LEVEL = 2
RANK_SEARCH_ROUNDS = SORT_ROUNDS + PREFIX_SUM_ROUNDS_PER_LEVEL + ROUTE_ROUNDS


# --------------------------------------------------------------------------
# Local phases of the primitives: functions of one machine's data.
# --------------------------------------------------------------------------


def _split_like(array: np.ndarray, sizes: Sequence[int]) -> List[np.ndarray]:
    """Slice a flat array into consecutive chunks of the given sizes."""
    bounds = np.cumsum([0] + list(sizes))
    return [array[bounds[i] : bounds[i + 1]] for i in range(len(sizes))]


def _local_sort_run(values: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stable-sort one machine's (values, keys) chunk by key."""
    order = np.argsort(keys, kind="stable")
    return values[order], keys[order]


def _local_bucket_by_destination(
    destinations: np.ndarray, num_machines: int, *columns: np.ndarray
) -> List[Tuple[np.ndarray, ...]]:
    """Split one machine's columns into per-destination segments with a
    single stable bucketing pass: one tuple of column slices per machine."""
    order = np.argsort(destinations, kind="stable")
    boundaries = np.searchsorted(destinations[order], np.arange(num_machines + 1))
    sorted_columns = [column[order] for column in columns]
    return [
        tuple(column[boundaries[p] : boundaries[p + 1]] for column in sorted_columns)
        for p in range(num_machines)
    ]


def _local_prefix_state(chunk: np.ndarray) -> Tuple[int, np.ndarray]:
    """One machine's contribution to a prefix sum: (chunk total, local scan)."""
    local = np.cumsum(np.asarray(chunk, dtype=np.int64))
    total = int(local[-1]) if len(local) else 0
    return total, local


def _local_scatter_inverse(size: int, base: int, values: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Place received (value, source-index) pairs of an inversion locally."""
    chunk = np.empty(size, dtype=np.int64)
    chunk[values - base] = sources
    return chunk


class DistributedArray:
    """A one-dimensional array partitioned across the machines of a cluster.

    ``chunks[p]`` is the slice held by machine ``p``.  The concatenation of
    the chunks (in machine order) is the logical array content.
    """

    def __init__(self, cluster: "MPCCluster", chunks: List[np.ndarray], label: str = "") -> None:
        self.cluster = cluster
        self.chunks = [np.asarray(chunk) for chunk in chunks]
        self.label = label
        cluster._check_chunks(self.chunks, context=label)

    # ------------------------------------------------------------------ views
    @property
    def total_size(self) -> int:
        return int(sum(len(chunk) for chunk in self.chunks))

    @property
    def chunk_sizes(self) -> List[int]:
        return [len(chunk) for chunk in self.chunks]

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    def to_array(self) -> np.ndarray:
        """Materialise the logical array (driver-side view, free of charge).

        This is a *read-only debugging/verification view*; the primitives
        operate chunk-resident and never call it.
        """
        if not self.chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self.chunks)

    def map_chunks(self, fn: Callable[[np.ndarray, int], np.ndarray], label: str = "map") -> "DistributedArray":
        """Apply a local (per-machine) function ``fn(chunk, machine)`` to
        every chunk; no round cost."""
        new_chunks = [fn(chunk, index) for index, chunk in enumerate(self.chunks)]
        self.cluster.stats.local_operations += self.total_size
        return DistributedArray(self.cluster, new_chunks, label=label)

    def __len__(self) -> int:
        return self.total_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedArray(label={self.label!r}, total={self.total_size}, "
            f"machines={self.num_chunks})"
        )


class MPCCluster:
    """A simulated MPC cluster (machines, space budget, accounting).

    Parameters
    ----------
    n:
        Problem size used to derive the default machine count and space.
    delta:
        The scalability parameter ``δ`` with ``0 < δ < 1``: ``m = Θ(n^δ)``
        machines and ``s = Õ(n^{1-δ})`` words each.
    num_machines, space_per_machine:
        Explicit overrides (used by :meth:`fork` and by tests).
    space_slack:
        Constant factor in front of ``n^{1-δ}``.
    polylog_exponent:
        Exponent of the ``log₂ n`` factor hidden in ``Õ`` (default 1).
    strict_space:
        When false, space violations are recorded (peak load) but do not
        raise; used by the space-overhead ablation benchmark.
    """

    def __init__(
        self,
        n: int,
        delta: float = 0.5,
        *,
        num_machines: Optional[int] = None,
        space_per_machine: Optional[int] = None,
        space_slack: float = 2.0,
        polylog_exponent: float = 1.0,
        strict_space: bool = True,
    ) -> None:
        if not (0.0 < delta < 1.0):
            raise ValueError("delta must lie strictly between 0 and 1")
        if n < 1:
            raise ValueError("n must be positive")
        self.n = int(n)
        self.delta = float(delta)
        self.space_slack = float(space_slack)
        self.polylog_exponent = float(polylog_exponent)
        self.strict_space = bool(strict_space)

        if num_machines is None:
            num_machines = max(1, math.ceil(n ** delta))
        if space_per_machine is None:
            polylog = max(1.0, math.log2(max(n, 2))) ** polylog_exponent
            # The MPC model assumes s = Ω(polylog n); the floor of 64 words
            # keeps degenerate toy instances (n of a few dozen) solvable on a
            # single machine without affecting any asymptotic accounting.
            space_per_machine = max(64, math.ceil(space_slack * (n ** (1.0 - delta)) * polylog))
        self.num_machines = int(num_machines)
        self.space_per_machine = int(space_per_machine)
        self.stats = ClusterStats(
            num_machines=self.num_machines, space_per_machine=self.space_per_machine
        )

    # ------------------------------------------------------------------ misc
    @property
    def total_space(self) -> int:
        """Aggregate memory of the cluster (``m * s``)."""
        return self.num_machines * self.space_per_machine

    def _check_load(self, load: int, machine: int = -1, context: str = "") -> None:
        self.stats.record_load(load)
        if load > self.space_per_machine and self.strict_space:
            raise SpaceExceededError(machine, load, self.space_per_machine, context)

    def _check_chunks(self, chunks: Sequence[np.ndarray], context: str = "") -> None:
        if len(chunks) > self.num_machines:
            raise MachineCountError(
                f"{len(chunks)} chunks but only {self.num_machines} machines ({context})"
            )
        for index, chunk in enumerate(chunks):
            self._check_load(len(chunk), machine=index, context=context)

    def charge_round(
        self, label: str, words: int, max_load: Optional[int] = None, phase: str = ""
    ) -> None:
        """Explicitly charge one communication round (for composite steps).

        ``max_load`` should be the true peak per-machine load of the round.
        The default assumes the worst case — all words on one machine — so
        call sites that know the real distribution must pass it explicitly;
        an optimistic default clamped to the space budget would silently
        under-report peak loads in the space ablations.
        """
        if max_load is None:
            max_load = words
        self._check_load(max_load, context=label)
        self.stats.record_round(label, words, max_load, phase=phase)

    def charge_rounds(
        self, count: int, label: str, words_per_round: int, max_load: Optional[int] = None, phase: str = ""
    ) -> None:
        for _ in range(max(0, int(count))):
            self.charge_round(label, words_per_round, max_load, phase=phase)

    def tree_depth(self) -> int:
        """Depth of an ``s``-ary aggregation tree over the machines (O(1))."""
        if self.num_machines <= 1:
            return 1
        return max(1, math.ceil(math.log(self.num_machines, max(2, self.space_per_machine))))

    # ----------------------------------------------------------- distribution
    def partition_bounds(self, total: int, parts: Optional[int] = None) -> np.ndarray:
        parts = parts if parts is not None else self.num_machines
        return np.linspace(0, total, parts + 1).round().astype(np.int64)

    def distribute(self, array: Union[Sequence, np.ndarray], label: str = "input") -> DistributedArray:
        """Place an input array across the machines in contiguous blocks.

        Input placement is part of the MPC model's starting state and costs no
        rounds, but the per-machine block size must respect the space budget.
        """
        array = np.asarray(array)
        bounds = self.partition_bounds(len(array))
        chunks = [array[bounds[p] : bounds[p + 1]] for p in range(self.num_machines)]
        return DistributedArray(self, chunks, label=label)

    def distributed_from_chunks(self, chunks: List[np.ndarray], label: str = "") -> DistributedArray:
        return DistributedArray(self, chunks, label=label)

    # ------------------------------------------------------------- primitives
    def broadcast(self, array: Union[Sequence, np.ndarray], label: str = "broadcast") -> np.ndarray:
        """Broadcast a small array to every machine (tree of arity ``s``)."""
        array = np.asarray(array)
        self._check_load(len(array), context=label)
        depth = self.tree_depth()
        for _ in range(depth * BROADCAST_ROUNDS_PER_LEVEL):
            self.charge_round(label, words=len(array) * self.num_machines, max_load=len(array))
        return array

    def route(
        self,
        darr: DistributedArray,
        destinations: np.ndarray,
        label: str = "route",
        payload: Optional[np.ndarray] = None,
    ) -> DistributedArray:
        """All-to-all: send element ``i`` to machine ``destinations[i]``.

        One round; the received chunks are ordered by source machine (stable).
        Returns the distributed array of payloads after routing (payload
        defaults to the array content itself).

        Local phase: every machine buckets its own chunk by destination.
        Exchange: destination ``p`` concatenates the segments addressed to it,
        in source-machine order.
        """
        destinations = np.asarray(destinations, dtype=np.int64)
        if len(destinations) != darr.total_size:
            raise ValueError("destinations must match the array length")
        if destinations.size and (
            destinations.min() < 0 or destinations.max() >= self.num_machines
        ):
            raise MachineCountError("destination machine index out of range")
        if payload is not None:
            payload = np.asarray(payload)
            if len(payload) != darr.total_size:
                raise ValueError("payload must match the array length")
            payload_chunks = _split_like(payload, darr.chunk_sizes)
        else:
            payload_chunks = darr.chunks
        dest_chunks = _split_like(destinations, darr.chunk_sizes)

        # Local phase: per-machine bucketing (stable within each machine).
        buckets = [
            _local_bucket_by_destination(dest, self.num_machines, chunk)
            for chunk, dest in zip(payload_chunks, dest_chunks)
        ]
        # Exchange: one all-to-all round.
        chunks = [
            np.concatenate([bucket[p][0] for bucket in buckets])
            if buckets
            else np.empty(0, dtype=np.int64)
            for p in range(self.num_machines)
        ]
        max_load = max((len(c) for c in chunks), default=0)
        self.charge_round(label, words=len(destinations), max_load=max_load)
        return DistributedArray(self, chunks, label=label)

    def sort(
        self,
        darr: DistributedArray,
        label: str = "sort",
        key: Optional[np.ndarray] = None,
    ) -> DistributedArray:
        """Deterministic O(1)-round sort (Lemma 2.5, [GSZ11]).

        Simulated as sample sort with regular sampling: one round to collect
        the per-machine regular samples, one to broadcast the splitters and
        one to route the data; the output is range-partitioned across the
        machines.

        Local phase: every machine stable-sorts its own chunk.  Exchange: the
        locally sorted runs are merged (this is the sample/splitter/route
        communication the three rounds pay for) and the result is
        range-partitioned into equal-size output chunks.
        """
        if key is None:
            key_chunks = darr.chunks
        else:
            keys = np.asarray(key)
            if len(keys) != darr.total_size:
                raise ValueError("key must match the array length")
            key_chunks = _split_like(keys, darr.chunk_sizes)

        # Local phase: per-machine stable sorts.
        runs = [_local_sort_run(values, keys_) for values, keys_ in zip(darr.chunks, key_chunks)]
        # Exchange: merge the sorted runs.  Stable-sorting the concatenation
        # of locally-stable runs breaks ties by (machine, original position),
        # i.e. exactly the global stable order.
        if runs:
            run_values = np.concatenate([values for values, _ in runs])
            run_keys = np.concatenate([keys_ for _, keys_ in runs])
        else:
            run_values = run_keys = np.empty(0, dtype=np.int64)
        order = np.argsort(run_keys, kind="stable")
        sorted_values = run_values[order]
        total = len(sorted_values)
        bounds = self.partition_bounds(total)
        chunks = [sorted_values[bounds[p] : bounds[p + 1]] for p in range(self.num_machines)]
        max_load = max((len(c) for c in chunks), default=0)
        # Round 1: every machine sends m regular samples; they are aggregated
        # over the s-ary machine tree, so no machine ever holds more than its
        # budget of samples (the tree fans in before the next level sends).
        sample_words = min(total, self.num_machines * self.num_machines)
        self.charge_round(f"{label}:sample", words=sample_words, max_load=min(sample_words, self.space_per_machine))
        # Round 2: the coordinator broadcasts the m-1 splitters.
        self.charge_round(f"{label}:splitters", words=self.num_machines * self.num_machines, max_load=self.num_machines)
        # Round 3: data is routed to its destination bucket.
        self.charge_round(f"{label}:route", words=total, max_load=max_load)
        return DistributedArray(self, chunks, label=label)

    def prefix_sum(
        self, darr: DistributedArray, label: str = "prefix_sum", exclusive: bool = True
    ) -> DistributedArray:
        """Deterministic O(1)-round prefix sums (Lemma 2.4, [GSZ11]).

        Local phase 1: every machine scans its own chunk and reports one
        total.  Exchange: the ``m`` chunk totals are scanned over the machine
        tree (O(m) words — the only data that moves).  Local phase 2: every
        machine offsets its local scan by its global prefix.
        """
        # Local phase 1: per-machine totals and local scans.
        states = [_local_prefix_state(chunk) for chunk in darr.chunks]
        totals = np.array([total for total, _ in states], dtype=np.int64)
        # Exchange: exclusive scan of the m chunk totals over the machine tree.
        offsets = np.cumsum(totals) - totals
        # Local phase 2: apply the offsets.
        chunks = []
        for chunk, (_, local), offset in zip(darr.chunks, states, offsets):
            inclusive = local + int(offset)
            chunks.append(inclusive - np.asarray(chunk, dtype=np.int64) if exclusive else inclusive)
        depth = self.tree_depth()
        for _ in range(depth * PREFIX_SUM_ROUNDS_PER_LEVEL):
            self.charge_round(
                label,
                words=self.num_machines,
                max_load=max(darr.chunk_sizes, default=0),
            )
        return DistributedArray(self, chunks, label=label)

    def inverse_permutation(self, darr: DistributedArray, label: str = "inverse") -> DistributedArray:
        """Invert a distributed permutation in one round (Lemma 2.3).

        Local phase: every machine addresses each of its entries ``(i, π(i))``
        to the machine owning position ``π(i)`` of the output.  Exchange: one
        all-to-all round.  Local phase 2: each machine scatters the received
        pairs into its output chunk.
        """
        n = darr.total_size
        bounds = self.partition_bounds(n)
        chunk_starts = np.cumsum([0] + darr.chunk_sizes)

        # Local phase: bucket (value, source index) pairs by target machine
        # in one pass per chunk.
        buckets = [
            _local_bucket_by_destination(
                np.searchsorted(bounds, chunk, side="right") - 1,
                self.num_machines,
                chunk,
                np.arange(chunk_starts[q], chunk_starts[q + 1], dtype=np.int64),
            )
            for q, chunk in enumerate(darr.chunks)
        ]
        # Exchange + local scatter.
        received = [
            (
                int(bounds[p + 1] - bounds[p]),
                int(bounds[p]),
                np.concatenate([bucket[p][0] for bucket in buckets])
                if buckets
                else np.empty(0, dtype=np.int64),
                np.concatenate([bucket[p][1] for bucket in buckets])
                if buckets
                else np.empty(0, dtype=np.int64),
            )
            for p in range(self.num_machines)
        ]
        chunks = [_local_scatter_inverse(*item) for item in received]
        max_load = max((len(c) for c in chunks), default=0)
        self.charge_round(label, words=n, max_load=max_load)
        return DistributedArray(self, chunks, label=label)

    def rank_search(
        self,
        data: DistributedArray,
        queries: DistributedArray,
        label: str = "rank_search",
    ) -> DistributedArray:
        """Offline rank searching (Lemma 2.6): ``r_i = #{a in data : a < q_i}``.

        Sort data and queries together, prefix-sum the indicator of data
        elements, and route the answers back to the queries' home machines.

        Exchange: the per-machine data chunks are merged into the sorted
        order (the simulator performs the sample-sort merge as one driver
        sort of the concatenated chunks — ranks only need the sorted
        multiset, so a per-machine pre-sort would be redundant work).  Local
        phase: every machine answers its own queries against that order.
        """
        sorted_data = (
            np.sort(np.concatenate(data.chunks))
            if data.chunks
            else np.empty(0, dtype=np.int64)
        )
        # Local phase: each machine answers its own query chunk.
        chunks = [np.searchsorted(sorted_data, chunk, side="left") for chunk in queries.chunks]
        total = data.total_size + queries.total_size
        max_load = max(
            max(data.chunk_sizes, default=0) + max(queries.chunk_sizes, default=0),
            math.ceil(total / self.num_machines),
        )
        for _ in range(SORT_ROUNDS):
            self.charge_round(f"{label}:sort", words=total, max_load=max_load)
        for _ in range(PREFIX_SUM_ROUNDS_PER_LEVEL * self.tree_depth()):
            self.charge_round(f"{label}:prefix", words=self.num_machines, max_load=max_load)
        self.charge_round(f"{label}:return", words=queries.total_size, max_load=max_load)
        return DistributedArray(self, chunks, label=label)

    # ------------------------------------------------------------------- fork
    def fork(self, groups: int, label: str = "fork") -> List["MPCCluster"]:
        """Split the cluster into ``groups`` sub-clusters that run in parallel.

        Machines are divided as evenly as possible (at least one machine per
        group) and keep the same per-machine space budget.  Use :meth:`join`
        afterwards to absorb their statistics with max-round (parallel
        composition) semantics — or :meth:`run_forked`, which forks, runs
        one task per group and joins.
        """
        groups = max(1, int(groups))
        per_group = [
            max(1, self.num_machines // groups + (1 if g < self.num_machines % groups else 0))
            for g in range(groups)
        ]
        children = []
        for g in range(groups):
            child = MPCCluster(
                self.n,
                self.delta,
                num_machines=per_group[g],
                space_per_machine=self.space_per_machine,
                space_slack=self.space_slack,
                polylog_exponent=self.polylog_exponent,
                strict_space=self.strict_space,
            )
            children.append(child)
        return children

    def join(self, children: List["MPCCluster"], label: str = "parallel") -> None:
        """Absorb the statistics of sub-clusters created by :meth:`fork`."""
        self.stats.absorb_parallel([child.stats for child in children], label=label)

    def run_forked(
        self, tasks: Sequence[Tuple[Callable[..., Any], tuple]], label: str = "fork"
    ) -> List[Any]:
        """Fork one sub-cluster per task, run the tasks, join the statistics.

        ``tasks`` is a sequence of ``(fn, args)`` pairs; each is invoked as
        ``fn(child_cluster, *args)``.  Results are returned in task order and
        the children's statistics are absorbed with parallel-composition
        semantics.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        children = self.fork(len(tasks), label=label)
        results = [fn(child, *args) for child, (fn, args) in zip(children, tasks)]
        self.join(children, label=label)
        return results
