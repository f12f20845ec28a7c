"""The index layer: a uniform handle over semi-local build products.

A :class:`SemiLocalIndex` wraps the expensive part of the paper's framework —
the (sub)unit-Monge permutation matrix of Theorem 1.3 / Corollaries
1.3.1-1.3.3 — behind one object that

* is addressed by a content **fingerprint** (input bytes + kind + semantic
  build params, see :mod:`repro.service.fingerprint`),
* answers **batches** of queries in one vectorised pass over the
  dominance-count structure (:class:`repro.core.combine.ColoredPointSet`),
  never a Python-level per-query loop,
* knows its resident size (``nbytes``) so the cache layer can budget it, and
* round-trips through a single compressed ``.npz`` file (disk spill /
  warm-start), reusing :meth:`repro.core.permutation.SubPermutation.npz_payload`.

Three kinds exist:

========== ======================================= ==========================
kind       underlying object                        query surface
========== ======================================= ==========================
lis:position subsegment matrix (Cor. 1.3.2)        ``query_substrings(i, j)``
lis:value  value-interval matrix (Thm 1.3)         ``query_rank_intervals``
lcs        semi-local LCS (Cor. 1.3.3)             ``query_substrings(i, j)``
             of ``S`` vs ``T[i:j]``
========== ======================================= ==========================

All kinds support ``window_sweep`` (a strided sweep of fixed-width windows)
and the global ``full_length()`` (LIS resp. LCS of the whole input).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.permutation import SubPermutation
from ..lcs.hunt_szymanski import match_pairs
from ..lcs.semilocal import SemiLocalLCS
from ..lis.mpc_lis import mpc_lis_matrix
from ..lis.semilocal import (
    SemiLocalLIS,
    subsegment_matrix,
    validate_intervals,
    value_interval_matrix,
)
from ..mpc.cluster import MPCCluster
from .fingerprint import index_fingerprint, stats_provenance_digest

__all__ = [
    "INDEX_KINDS",
    "SemiLocalIndex",
    "build_lis_index",
    "build_lcs_index",
    "lis_index_fingerprint",
    "lcs_index_fingerprint",
]

INDEX_KINDS = ("lis:position", "lis:value", "lcs")

#: Bump when the ``.npz`` layout changes.
_NPZ_FORMAT_VERSION = 1


@dataclass
class SemiLocalIndex:
    """One built semi-local object, ready to answer query batches."""

    #: Content fingerprint — the cache key (see :mod:`.fingerprint`).
    fingerprint: str
    #: One of :data:`INDEX_KINDS`.
    kind: str
    #: The wrapped semi-local LIS object (for ``lcs`` this is the match-
    #: sequence value-interval matrix of Corollary 1.3.3).
    semilocal: SemiLocalLIS
    #: Length of the query universe: ``n`` for LIS kinds, ``|T|`` for LCS.
    length: int
    #: Sorted T-positions of the match pairs (``lcs`` kind only).
    match_positions: Optional[np.ndarray] = None
    #: Build mechanics: mode, delta, rounds, stats digest, seconds.
    provenance: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in INDEX_KINDS:
            raise ValueError(f"unknown index kind {self.kind!r}; expected one of {INDEX_KINDS}")
        if self.kind == "lcs":
            if self.match_positions is None:
                raise ValueError("lcs indexes need the sorted match positions")
            self._lcs = SemiLocalLCS(
                semilocal=self.semilocal,
                match_positions=np.asarray(self.match_positions, dtype=np.int64),
                t_length=self.length,
            )
        else:
            self._lcs = None

    # ---------------------------------------------------------------- queries
    def query_substrings(self, i, j) -> np.ndarray:
        """Batched ``LIS(A[i:j])`` (``lis:position``) / ``LCS(S, T[i:j])`` (``lcs``).

        One vectorised dominance-count evaluation for the whole batch.
        """
        if self.kind == "lis:position":
            return self.semilocal.query_substrings(i, j)
        if self.kind == "lcs":
            return self._lcs.query_batch(i, j)
        raise ValueError(
            f"kind {self.kind!r} does not answer substring queries "
            "(build a 'lis:position' or 'lcs' index)"
        )

    def query_rank_intervals(self, x, y) -> np.ndarray:
        """Batched LIS over rank windows ``[x, y)`` (``lis:value`` kind)."""
        if self.kind != "lis:value":
            raise ValueError(
                f"kind {self.kind!r} does not answer rank-interval queries "
                "(build a 'lis:value' index)"
            )
        return self.semilocal.query_rank_intervals(x, y)

    def sweep_intervals(self, width: int, step: int = 1) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(starts, ends)`` interval arrays of a strided window sweep.

        The single source of sweep geometry and its validation — consumed by
        :meth:`window_sweep` and by the serving layer's request flattening,
        so the two paths can never diverge.
        """
        width = int(width)
        step = int(step)
        if width < 1 or width > self.length:
            raise ValueError(f"window width must satisfy 1 <= width <= {self.length}, got {width}")
        if step < 1:
            raise ValueError(f"window step must be >= 1, got {step}")
        starts = np.arange(0, self.length - width + 1, step, dtype=np.int64)
        return starts, starts + width

    def window_sweep(self, width: int, step: int = 1) -> np.ndarray:
        """Scores of every ``width``-wide window, strided by ``step``.

        Substring windows for ``lis:position``/``lcs``, rank windows for
        ``lis:value``.  Answers all windows in one vectorised batch.
        """
        starts, ends = self.sweep_intervals(width, step)
        if self.kind == "lis:value":
            return self.query_rank_intervals(starts, ends)
        return self.query_substrings(starts, ends)

    def full_length(self) -> int:
        """The global answer: LIS of the whole sequence / LCS of ``S, T``."""
        if self.kind == "lcs":
            return self._lcs.lcs_length()
        return self.semilocal.lis_length()

    # ----------------------------------------------------------------- sizing
    @property
    def nbytes(self) -> int:
        """Resident bytes of the build product (what the cache budgets)."""
        total = self.semilocal.nbytes
        if self.match_positions is not None:
            total += int(np.asarray(self.match_positions).nbytes)
        return int(total)

    # ------------------------------------------------------------ persistence
    def save(self, path: str) -> None:
        """Spill the index to one compressed ``.npz`` file."""
        meta = {
            "format_version": _NPZ_FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "length": int(self.length),
            "semilocal_kind": self.semilocal.kind,
            "semilocal_length": int(self.semilocal.length),
            "provenance": self.provenance,
        }
        payload = self.semilocal.matrix.npz_payload(prefix="matrix_")
        payload["meta_json"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        if self.match_positions is not None:
            payload["match_positions"] = np.asarray(self.match_positions, dtype=np.int64)
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path: str) -> "SemiLocalIndex":
        """Rebuild an index from :meth:`save` output (validates the matrix)."""
        with np.load(path) as payload:
            try:
                meta = json.loads(bytes(payload["meta_json"]).decode("utf-8"))
            except KeyError:
                raise ValueError(f"{path} is not a serialized SemiLocalIndex") from None
            if meta.get("format_version", 0) > _NPZ_FORMAT_VERSION:
                raise ValueError(
                    f"{path} uses npz format {meta['format_version']}, newer than "
                    f"supported {_NPZ_FORMAT_VERSION}"
                )
            matrix = SubPermutation.from_npz_payload(payload, prefix="matrix_")
            match_positions = (
                np.asarray(payload["match_positions"], dtype=np.int64)
                if "match_positions" in payload
                else None
            )
        semilocal = SemiLocalLIS(
            matrix=matrix, kind=meta["semilocal_kind"], length=int(meta["semilocal_length"])
        )
        return cls(
            fingerprint=meta["fingerprint"],
            kind=meta["kind"],
            semilocal=semilocal,
            length=int(meta["length"]),
            match_positions=match_positions,
            provenance=meta.get("provenance", {}),
        )


# ------------------------------------------------------------------ builders
def lis_index_fingerprint(sequence, kind: str, strict: bool) -> str:
    """Cache key of a LIS index over ``sequence`` (build mechanics excluded)."""
    return index_fingerprint(kind, [np.asarray(sequence)], {"strict": bool(strict)})


def lcs_index_fingerprint(s, t) -> str:
    """Cache key of the semi-local LCS index of ``S`` vs ``T``."""
    return index_fingerprint("lcs", [np.asarray(s), np.asarray(t)], {})


def _provenance(
    mode: str, delta: float, cluster: Optional[MPCCluster], seconds: float
) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "mode": mode,
        "build_seconds": float(seconds),
    }
    if cluster is not None:
        doc.update(
            {
                "delta": float(delta),
                "rounds": cluster.stats.num_rounds,
                "peak_machine_load": cluster.stats.peak_machine_load,
                "stats_digest": stats_provenance_digest(cluster.stats),
            }
        )
    return doc


def build_lis_index(
    sequence: Union[Sequence, np.ndarray],
    *,
    kind: str = "lis:position",
    strict: bool = True,
    mode: str = "sequential",
    delta: float = 0.5,
) -> SemiLocalIndex:
    """Build a semi-local LIS index (sequentially or on the MPC simulator).

    ``mode='mpc'`` runs the O(log n)-round pipeline of Theorem 1.3 /
    Corollary 1.3.2 on an :class:`MPCCluster`; ``mode='sequential'`` runs
    the in-process seaweed engine.  Both
    produce bit-identical matrices — the fingerprint therefore covers only
    the input and query semantics, while the build path is recorded in
    ``provenance``.
    """
    if kind not in ("lis:position", "lis:value"):
        raise ValueError(f"LIS index kind must be 'lis:position' or 'lis:value', got {kind!r}")
    sequence = np.asarray(sequence)
    fingerprint = lis_index_fingerprint(sequence, kind, strict)
    matrix_kind = "position" if kind == "lis:position" else "value"
    started = time.perf_counter()
    cluster: Optional[MPCCluster] = None
    if mode == "mpc":
        cluster = MPCCluster(max(1, len(sequence)), delta=delta)
        semilocal = mpc_lis_matrix(cluster, sequence, strict=strict, kind=matrix_kind).semilocal
    elif mode == "sequential":
        build = subsegment_matrix if matrix_kind == "position" else value_interval_matrix
        semilocal = build(sequence, strict=strict)
    else:
        raise ValueError(f"build mode must be 'sequential' or 'mpc', got {mode!r}")
    seconds = time.perf_counter() - started
    return SemiLocalIndex(
        fingerprint=fingerprint,
        kind=kind,
        semilocal=semilocal,
        length=len(sequence),
        provenance=_provenance(mode, delta, cluster, seconds),
    )


def build_lcs_index(
    s: Union[Sequence, np.ndarray],
    t: Union[Sequence, np.ndarray],
    *,
    mode: str = "sequential",
    delta: float = 0.5,
) -> SemiLocalIndex:
    """Build the semi-local LCS index of ``S`` vs all subsegments of ``T``.

    The Corollary 1.3.3 reduction: the Hunt–Szymanski match sequence's
    value-interval matrix answers every ``LCS(S, T[i:j])``.
    """
    s = np.asarray(s)
    t = np.asarray(t)
    fingerprint = lcs_index_fingerprint(s, t)
    pairs = match_pairs(s, t)
    matches = pairs[:, 1] if len(pairs) else np.empty(0, dtype=np.int64)
    started = time.perf_counter()
    cluster: Optional[MPCCluster] = None
    if mode == "mpc":
        from ..lcs.mpc_lcs import lcs_cluster_for

        cluster = lcs_cluster_for(len(s), len(t), len(matches), delta=delta)
        semilocal = mpc_lis_matrix(cluster, matches, strict=True, kind="value").semilocal
    elif mode == "sequential":
        semilocal = value_interval_matrix(matches, strict=True)
    else:
        raise ValueError(f"build mode must be 'sequential' or 'mpc', got {mode!r}")
    seconds = time.perf_counter() - started
    return SemiLocalIndex(
        fingerprint=fingerprint,
        kind="lcs",
        semilocal=semilocal,
        length=len(t),
        match_positions=np.sort(matches),
        provenance=_provenance(mode, delta, cluster, seconds),
    )
