"""JSON-safe serialization of cluster statistics and metric values.

The experiment runner stores every grid point's metrics in a JSON artifact
(see :mod:`repro.experiments.artifacts`).  Metric values come straight out of
NumPy-heavy code, so they routinely carry ``np.int64`` / ``np.float64`` /
``np.bool_`` scalars that the stdlib :mod:`json` encoder rejects; this module
normalises everything to plain Python containers first.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..mpc.accounting import ClusterStats

__all__ = ["to_jsonable", "stats_summary", "stats_to_dict", "weighted_checksum"]


def weighted_checksum(values) -> int:
    """Order-sensitive digest of an integer array: ``Σ v[k]·(k+1) mod 2^61-1``.

    Cheap enough to compute inline, order-sensitive so permuted results do
    not collide, and shared by every artifact that records result identity
    (the ``answers_checksum`` of the serving, streaming and shard-scaling
    specs) — those records must stay comparable across runs and commits, so
    the formula lives here exactly once.
    """
    arr = np.asarray(values, dtype=np.int64)
    if arr.size == 0:
        return 0
    return int((arr * (np.arange(arr.size, dtype=np.int64) + 1)).sum() % (2**61 - 1))


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-encodable plain Python types."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def stats_summary(stats: ClusterStats) -> Dict[str, Any]:
    """The :meth:`ClusterStats.summary` dictionary with JSON-safe values."""
    return to_jsonable(stats.summary())


def stats_to_dict(stats: ClusterStats, include_rounds: bool = False) -> Dict[str, Any]:
    """A full JSON-safe dump of a :class:`ClusterStats`.

    ``include_rounds`` adds the per-round trace (label, words, load, phase) —
    useful for debugging one execution, too verbose for sweep artifacts.
    """
    doc = stats_summary(stats)
    doc["local_operations"] = int(stats.local_operations)
    doc["rounds_by_phase"] = to_jsonable(stats.rounds_by_phase())
    if include_rounds:
        doc["round_trace"] = [
            {
                "index": record.index,
                "label": record.label,
                "words_communicated": int(record.words_communicated),
                "max_machine_load": int(record.max_machine_load),
                "phase": record.phase,
            }
            for record in stats.rounds
        ]
    return doc
