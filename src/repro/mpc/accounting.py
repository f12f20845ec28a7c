"""Round, space and communication accounting for the MPC simulator.

The primary complexity measure of the MPC model is the number of rounds; the
secondary measures are the maximum number of words a machine holds (its space
``s``) and the total communication per round.  Every primitive and every
algorithm in :mod:`repro.mpc_monge`, :mod:`repro.lis.mpc_lis` and
:mod:`repro.lcs.mpc_lcs` records what it does through the classes below, and
the benchmark harness reads the totals from :class:`ClusterStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["RoundRecord", "ClusterStats"]


@dataclass
class RoundRecord:
    """One communication round of the simulated cluster."""

    index: int
    label: str
    words_communicated: int = 0
    max_machine_load: int = 0
    phase: str = ""

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"round {self.index:3d} [{self.label}] "
            f"words={self.words_communicated} max_load={self.max_machine_load}"
        )


@dataclass
class ClusterStats:
    """Aggregated statistics of a simulated MPC execution."""

    num_machines: int
    space_per_machine: int
    rounds: List[RoundRecord] = field(default_factory=list)
    peak_machine_load: int = 0
    local_operations: int = 0

    # ----------------------------------------------------------------- update
    def record_round(
        self,
        label: str,
        words_communicated: int,
        max_machine_load: int,
        phase: str = "",
    ) -> RoundRecord:
        record = RoundRecord(
            index=len(self.rounds),
            label=label,
            words_communicated=int(words_communicated),
            max_machine_load=int(max_machine_load),
            phase=phase,
        )
        self.rounds.append(record)
        self.peak_machine_load = max(self.peak_machine_load, record.max_machine_load)
        return record

    def record_load(self, load: int) -> None:
        """Record a per-machine memory load that occurs outside a round."""
        self.peak_machine_load = max(self.peak_machine_load, int(load))

    def absorb_parallel(self, children: List["ClusterStats"], label: str = "parallel") -> None:
        """Join statistics of sub-clusters that ran in parallel.

        The parallel groups execute their rounds simultaneously, so the parent
        is charged the *maximum* round count of the children, while
        communication adds up and the peak load is the maximum.
        """
        if not children:
            return
        max_rounds = max(len(child.rounds) for child in children)
        for i in range(max_rounds):
            words = sum(
                child.rounds[i].words_communicated
                for child in children
                if i < len(child.rounds)
            )
            load = max(
                child.rounds[i].max_machine_load
                for child in children
                if i < len(child.rounds)
            )
            self.record_round(f"{label}[{i}]", words, load, phase=label)
        self.peak_machine_load = max(
            [self.peak_machine_load] + [child.peak_machine_load for child in children]
        )
        self.local_operations += sum(child.local_operations for child in children)

    # ---------------------------------------------------------------- queries
    def fingerprint(self) -> tuple:
        """A hashable digest of everything the accounting layer records.

        The simulator is deterministic: two executions of the same algorithm
        on the same input produce equal fingerprints, round by round.
        """
        return (
            self.num_machines,
            self.space_per_machine,
            self.peak_machine_load,
            self.local_operations,
            tuple(
                (record.label, record.words_communicated, record.max_machine_load, record.phase)
                for record in self.rounds
            ),
        )

    @property
    def num_rounds(self) -> int:
        """Total number of communication rounds."""
        return len(self.rounds)

    @property
    def total_communication(self) -> int:
        """Total number of words sent across all rounds."""
        return sum(record.words_communicated for record in self.rounds)

    @property
    def max_round_communication(self) -> int:
        return max((r.words_communicated for r in self.rounds), default=0)

    def rounds_by_phase(self) -> Dict[str, int]:
        """Number of rounds charged to each labelled phase."""
        phases: Dict[str, int] = {}
        for record in self.rounds:
            key = record.phase or record.label
            phases[key] = phases.get(key, 0) + 1
        return phases

    def summary(self) -> Dict[str, float]:
        """A flat dictionary used by the benchmark harness and reports."""
        return {
            "machines": self.num_machines,
            "space_per_machine": self.space_per_machine,
            "rounds": self.num_rounds,
            "total_communication": self.total_communication,
            "max_round_communication": self.max_round_communication,
            "peak_machine_load": self.peak_machine_load,
            "space_utilisation": (
                self.peak_machine_load / self.space_per_machine
                if self.space_per_machine
                else 0.0
            ),
        }

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        lines = [
            f"MPC execution: {self.num_machines} machines x {self.space_per_machine} words",
            f"  rounds              = {self.num_rounds}",
            f"  total communication = {self.total_communication}",
            f"  peak machine load   = {self.peak_machine_load}",
        ]
        return "\n".join(lines)
