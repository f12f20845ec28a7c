"""Content fingerprints for the query-serving layer.

An index is addressed by a digest of *what it answers queries about*: the
raw bytes of the input sequence(s), the index kind and the build parameters
that change query semantics (``strict``).  Build *mechanics* — sequential vs
MPC construction, ``delta`` — are deliberately **not** part of the
identity: every build path produces the same (sub)permutation matrix bit
for bit (the test-suite enforces this), so a cache entry built one way must
serve requests issued against any other.

Build mechanics are instead recorded as *provenance* on the index handle —
including a digest of :meth:`repro.mpc.accounting.ClusterStats.fingerprint`
for MPC builds, which pins down the exact round/space/communication trace
that produced the matrix.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "array_fingerprint",
    "params_fingerprint",
    "index_fingerprint",
    "stats_provenance_digest",
]

_HASH = hashlib.sha256


def array_fingerprint(array: "np.ndarray | Sequence") -> str:
    """Digest of an array's dtype, shape and raw bytes."""
    arr = np.ascontiguousarray(np.asarray(array))
    digest = _HASH()
    digest.update(str(arr.dtype).encode("utf-8"))
    digest.update(str(arr.shape).encode("utf-8"))
    digest.update(arr.tobytes())
    return digest.hexdigest()


def params_fingerprint(params: Mapping[str, Any]) -> str:
    """Digest of a flat parameter mapping via canonical (sorted-key) JSON."""
    canonical = json.dumps(dict(params), sort_keys=True, separators=(",", ":"), default=str)
    return _HASH(canonical.encode("utf-8")).hexdigest()


def index_fingerprint(
    kind: str,
    arrays: Sequence["np.ndarray | Sequence"],
    params: Optional[Mapping[str, Any]] = None,
) -> str:
    """The cache key of an index: kind + input array digests + semantic params."""
    digest = _HASH()
    digest.update(kind.encode("utf-8"))
    for array in arrays:
        digest.update(array_fingerprint(array).encode("utf-8"))
    digest.update(params_fingerprint(params or {}).encode("utf-8"))
    return digest.hexdigest()


def stats_provenance_digest(stats) -> str:
    """Digest of a :class:`ClusterStats` fingerprint tuple (build provenance).

    The simulator is deterministic, so two MPC builds of the same index with
    the same ``delta`` always carry the same provenance digest.
    """
    return _HASH(repr(stats.fingerprint()).encode("utf-8")).hexdigest()
