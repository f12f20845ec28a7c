"""Request/response model of the serving layer, plus the JSON batch format.

``python -m repro serve --requests file.json`` drives the service from one
self-identifying document::

    {
      "schema": "repro.service.requests",
      "version": 1,
      "defaults": {"mode": "sequential", "delta": 0.5, "backend": "serial"},
      "requests": [
        {"op": "lis_length",       "workload": "random", "n": 4096, "seed": 7},
        {"op": "substring_query",  "workload": "random", "n": 4096, "seed": 7,
         "i": [0, 128, 1024], "j": [512, 4096, 2048]},
        {"op": "window_sweep",     "workload": "random", "n": 4096, "seed": 7,
         "width": 256, "step": 64},
        {"op": "rank_interval_query", "sequence": [3, 1, 4, 1, 5, 9, 2, 6],
         "x": 0, "y": 8},
        {"op": "lcs_length", "string_workload": "correlated_pair", "n": 256,
         "seed": 3, "workload_args": {"alphabet": 8}},
        {"op": "substring_query", "string_workload": "correlated_pair",
         "n": 256, "seed": 3, "workload_args": {"alphabet": 8},
         "i": 0, "j": 128}
      ]
    }

Targets are either **named workloads** (the registry of
:mod:`repro.workloads.registry`; ``workload`` for sequences,
``string_workload`` for LCS pairs) or **inline data** (``sequence`` /
``s``+``t``).  Requests against the same target share one index build —
that grouping is the whole point of the serving layer.

Version 2 (additive) introduces the ``refresh`` request kind::

    {"op": "refresh", "workload": "random", "n": 4096, "seed": 7,
     "append": [3, 1, 4, 1, 5]}

which asks the service to *patch* the cached value-interval index of the
target in place — one suffix block build plus one ⊡ multiplication
(:func:`repro.streaming.recompose.extend_value_matrix`) — re-fingerprint the
extended sequence and re-insert the patched index into the cache, instead of
discarding the build product and starting over.  Version-1 documents remain
valid; the parser accepts any version up to
:data:`REQUESTS_SCHEMA_VERSION`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..workloads.registry import (
    make_sequence,
    make_string_pair,
    sequence_workload_names,
    string_workload_names,
)

__all__ = [
    "REQUESTS_SCHEMA_ID",
    "REQUESTS_SCHEMA_VERSION",
    "OPS",
    "ServiceRequestError",
    "TargetSpec",
    "QueryRequest",
    "parse_requests_document",
    "parse_requests_lenient",
    "parse_target",
]

REQUESTS_SCHEMA_ID = "repro.service.requests"
REQUESTS_SCHEMA_VERSION = 2

#: The request operations the service answers (``refresh`` is new in v2).
OPS = (
    "lis_length",
    "lcs_length",
    "substring_query",
    "rank_interval_query",
    "window_sweep",
    "refresh",
)


class ServiceRequestError(ValueError):
    """A request (or the batch document) is malformed."""


@dataclass(frozen=True)
class TargetSpec:
    """What input an index is built over (named workload or inline data)."""

    #: ``'sequence'`` or ``'string_pair'``.
    kind: str
    #: Registry name when the target is a named workload, else ``None``.
    workload: Optional[str] = None
    n: Optional[int] = None
    seed: Optional[int] = None
    #: Extra generator kwargs (canonicalised to a sorted tuple for hashing).
    workload_args: Tuple[Tuple[str, Any], ...] = ()
    #: Inline data (tuple-of-numbers form so the spec stays hashable).
    data: Optional[tuple] = None
    data_t: Optional[tuple] = None

    def realise(self):
        """Produce the concrete input array(s) this target describes.

        Inline data is canonicalised to ``float64``: Python tuple equality
        treats ``1 == 1.0``, so two equal :class:`TargetSpec` objects must
        realise to byte-identical arrays or the fingerprint memo of the
        serving layer would hand equal specs different identities.  LIS/LCS
        only compare values for order/equality, so the coercion never
        changes an answer (integers above 2^53 excepted).
        """
        kwargs = dict(self.workload_args)
        if self.kind == "sequence":
            if self.workload is not None:
                return make_sequence(self.workload, self.n, seed=self.seed, **kwargs)
            return np.asarray(self.data, dtype=np.float64)
        if self.workload is not None:
            return make_string_pair(self.workload, self.n, seed=self.seed, **kwargs)
        return (
            np.asarray(self.data, dtype=np.float64),
            np.asarray(self.data_t, dtype=np.float64),
        )

    def describe(self) -> str:
        if self.workload is not None:
            return f"{self.workload}(n={self.n}, seed={self.seed})"
        size = len(self.data) if self.data is not None else 0
        return f"inline[{size}]" if self.kind == "sequence" else f"inline_pair[{size}]"


@dataclass
class QueryRequest:
    """One unit of work: an operation against a target."""

    op: str
    target: TargetSpec
    request_id: str = ""
    #: Substring / subsegment windows (scalars or parallel arrays).
    i: Any = None
    j: Any = None
    #: Rank windows (``rank_interval_query``).
    x: Any = None
    y: Any = None
    #: Sweep geometry (``window_sweep``).
    width: Optional[int] = None
    step: int = 1
    #: Strictness of the LIS order (ignored for LCS targets).
    strict: bool = True
    #: Symbols appended to the target (``refresh``, schema v2).
    append: Optional[tuple] = None

    def index_kind(self) -> str:
        """The index kind this request must be answered from."""
        if self.target.kind == "string_pair":
            return "lcs"
        if self.op in ("rank_interval_query", "refresh"):
            return "lis:value"
        return "lis:position"


def _as_tuple(values, what: str) -> tuple:
    try:
        arr = np.asarray(values)
    except Exception:
        raise ServiceRequestError(f"{what} must be an array of numbers") from None
    if arr.ndim != 1 or arr.size == 0 or not np.issubdtype(arr.dtype, np.number):
        raise ServiceRequestError(f"{what} must be a non-empty 1-D array of numbers")
    if np.isnan(arr).any():
        # JSON parsers accept NaN, but it has no order: the rank transform
        # sorts it last while the DP oracle compares it false both ways.
        raise ServiceRequestError(f"{what} must not contain NaN")
    return tuple(arr.tolist())


def _parse_target(doc: Mapping[str, Any], where: str, default_seed: int = 0) -> TargetSpec:
    ways = [key for key in ("workload", "string_workload", "sequence", "s") if key in doc]
    if len(ways) != 1:
        raise ServiceRequestError(
            f"{where}: specify the target exactly one way — 'workload' (named sequence), "
            f"'string_workload' (named pair), 'sequence' (inline) or 's'+'t' (inline pair); "
            f"got {ways or 'none'}"
        )
    workload_args = doc.get("workload_args", {})
    if not isinstance(workload_args, dict):
        raise ServiceRequestError(f"{where}: 'workload_args' must be an object")
    for key, value in workload_args.items():
        # TargetSpec is hashable (it is the request-grouping key), so every
        # generator argument must be a scalar — a list here would crash the
        # grouping with an opaque TypeError long after parsing.
        if value is not None and not isinstance(value, (str, int, float, bool)):
            raise ServiceRequestError(
                f"{where}: 'workload_args' values must be scalars, got "
                f"{key}={value!r} ({type(value).__name__})"
            )
    args_key = tuple(sorted(workload_args.items()))

    if "workload" in doc or "string_workload" in doc:
        named_seq = "workload" in doc
        name = doc["workload"] if named_seq else doc["string_workload"]
        known = sequence_workload_names() if named_seq else string_workload_names()
        if name not in known:
            kind_word = "sequence" if named_seq else "string-pair"
            raise ServiceRequestError(
                f"{where}: unknown {kind_word} workload {name!r}; available: {known}"
            )
        if "n" not in doc:
            raise ServiceRequestError(f"{where}: named workload targets need 'n'")
        n = int(doc["n"])
        if n < 1:
            raise ServiceRequestError(f"{where}: 'n' must be positive, got {n}")
        return TargetSpec(
            kind="sequence" if named_seq else "string_pair",
            workload=name,
            n=n,
            seed=int(doc.get("seed", default_seed)),
            workload_args=args_key,
        )
    if "sequence" in doc:
        return TargetSpec(kind="sequence", data=_as_tuple(doc["sequence"], f"{where}: 'sequence'"))
    if "t" not in doc:
        raise ServiceRequestError(f"{where}: inline pair targets need both 's' and 't'")
    return TargetSpec(
        kind="string_pair",
        data=_as_tuple(doc["s"], f"{where}: 's'"),
        data_t=_as_tuple(doc["t"], f"{where}: 't'"),
    )


def _parse_request(doc: Mapping[str, Any], idx: int, default_seed: int = 0) -> QueryRequest:
    where = f"requests[{idx}]"
    if not isinstance(doc, Mapping):
        raise ServiceRequestError(f"{where} must be an object")
    op = doc.get("op")
    if op not in OPS:
        raise ServiceRequestError(f"{where}: unknown op {op!r}; supported: {sorted(OPS)}")
    target = _parse_target(doc, where, default_seed)

    if op == "lis_length" and target.kind != "sequence":
        raise ServiceRequestError(f"{where}: 'lis_length' needs a sequence target")
    if op == "lcs_length" and target.kind != "string_pair":
        raise ServiceRequestError(f"{where}: 'lcs_length' needs a string-pair target")
    if op in ("rank_interval_query", "refresh") and target.kind != "sequence":
        raise ServiceRequestError(f"{where}: {op!r} needs a sequence target")

    request = QueryRequest(
        op=op,
        target=target,
        request_id=str(doc.get("id", f"r{idx}")),
        strict=bool(doc.get("strict", True)),
        step=int(doc.get("step", 1)),
    )
    if op == "substring_query":
        if "i" not in doc or "j" not in doc:
            raise ServiceRequestError(f"{where}: 'substring_query' needs 'i' and 'j'")
        request.i, request.j = doc["i"], doc["j"]
    elif op == "rank_interval_query":
        if "x" not in doc or "y" not in doc:
            raise ServiceRequestError(f"{where}: 'rank_interval_query' needs 'x' and 'y'")
        request.x, request.y = doc["x"], doc["y"]
    elif op == "window_sweep":
        if "width" not in doc:
            raise ServiceRequestError(f"{where}: 'window_sweep' needs 'width'")
        request.width = int(doc["width"])
    elif op == "refresh":
        if "append" not in doc:
            raise ServiceRequestError(f"{where}: 'refresh' needs 'append' (the new symbols)")
        request.append = _as_tuple(doc["append"], f"{where}: 'append'")
    return request


def parse_target(doc: Mapping[str, Any], where: str = "target", default_seed: int = 0) -> TargetSpec:
    """Parse one target description (the workload/inline keys of a request).

    Public wrapper used by callers (the HTTP server's ``/builds`` and
    ``/sessions`` routes) that need a :class:`TargetSpec` without a full
    request envelope around it.
    """
    if not isinstance(doc, Mapping):
        raise ServiceRequestError(f"{where} must be an object")
    return _parse_target(doc, where, default_seed)


def _parse_envelope(
    document: Any, default_seed: Optional[int]
) -> Tuple[Dict[str, Any], list, int]:
    """Validate the batch envelope; returns ``(defaults, raw_requests, seed)``."""
    if not isinstance(document, Mapping):
        raise ServiceRequestError("the requests document must be a JSON object")
    schema = document.get("schema", REQUESTS_SCHEMA_ID)
    if schema != REQUESTS_SCHEMA_ID:
        raise ServiceRequestError(
            f"unknown requests schema {schema!r} (expected {REQUESTS_SCHEMA_ID!r})"
        )
    version = document.get("version", REQUESTS_SCHEMA_VERSION)
    if not isinstance(version, int) or version > REQUESTS_SCHEMA_VERSION:
        raise ServiceRequestError(
            f"requests document version {version!r} is newer than supported "
            f"version {REQUESTS_SCHEMA_VERSION}"
        )
    defaults = document.get("defaults", {})
    if not isinstance(defaults, Mapping):
        raise ServiceRequestError("'defaults' must be an object")
    raw = document.get("requests")
    if not isinstance(raw, list) or not raw:
        raise ServiceRequestError("'requests' must be a non-empty array")
    if default_seed is None:
        default_seed = int(defaults.get("seed", 0))
    return dict(defaults), raw, int(default_seed)


def parse_requests_document(
    document: Any,
    *,
    default_seed: Optional[int] = None,
) -> Tuple[Dict[str, Any], List[QueryRequest]]:
    """Validate a batch document; returns ``(defaults, requests)``.

    ``defaults`` are service-configuration hints (``mode`` / ``delta`` /
    ``backend`` / ``cache_bytes`` / ``spill_dir``) that the CLI merges under
    its own flags.  ``default_seed`` (the CLI ``--seed`` flag) applies to
    named-workload targets that omit an explicit ``seed``; the document's
    own ``defaults.seed`` takes precedence over the built-in 0 but not over
    the explicit argument.

    The first malformed request aborts the whole batch (strict mode — the
    CLI's file-in/artifact-out path wants all-or-nothing semantics).  Online
    callers that must answer the well-formed subset anyway should use
    :func:`parse_requests_lenient`.
    """
    defaults, raw, seed = _parse_envelope(document, default_seed)
    return defaults, [_parse_request(entry, idx, seed) for idx, entry in enumerate(raw)]


def parse_requests_lenient(
    document: Any,
    *,
    default_seed: Optional[int] = None,
) -> Tuple[Dict[str, Any], List[Tuple[int, QueryRequest]], List[Dict[str, Any]]]:
    """Like :func:`parse_requests_document`, but per-request errors don't abort.

    A malformed envelope (wrong schema, empty ``requests`` array, …) still
    raises — there is nothing sensible to salvage.  A malformed *entry*
    inside an otherwise-valid batch instead lands in the returned error
    list, so one bad op in a 100-request batch costs one error slot instead
    of the whole batch.  Returns ``(defaults, parsed, errors)`` where
    ``parsed`` is ``[(index, request)]`` (original batch positions) and each
    error is ``{"index", "id", "error"}``.
    """
    defaults, raw, seed = _parse_envelope(document, default_seed)
    parsed: List[Tuple[int, QueryRequest]] = []
    errors: List[Dict[str, Any]] = []
    for idx, entry in enumerate(raw):
        try:
            parsed.append((idx, _parse_request(entry, idx, seed)))
        except ServiceRequestError as exc:
            rid = entry.get("id", f"r{idx}") if isinstance(entry, Mapping) else f"r{idx}"
            errors.append({"index": idx, "id": str(rid), "error": str(exc)})
    return defaults, parsed, errors
