"""The query-serving subsystem: amortise one seaweed build over many queries.

The semi-local framework's defining property (Theorem 1.3 and its
corollaries) is that *one* precomputed distribution matrix answers **every**
substring / window / rank-interval query about its input.  This package
turns that property into a serving stack:

* :mod:`~repro.service.index` — :class:`SemiLocalIndex`, a fingerprinted
  handle over a build product with vectorised batch query methods and an
  ``.npz`` round-trip;
* :mod:`~repro.service.cache` — :class:`IndexCache`, a byte-budgeted LRU
  with hit/miss/eviction counters and optional disk spill;
* :mod:`~repro.service.requests` — the request model and the JSON batch
  document behind ``python -m repro serve``;
* :mod:`~repro.service.serving` — :class:`QueryService`, which groups mixed
  request batches by index, builds what is missing (sequentially or on the
  MPC simulator), and answers each group in one vectorised pass;
* :mod:`~repro.service.sharding` — :class:`ShardRouter`, which
  consistent-hashes index fingerprints across N long-lived worker
  processes (each with a private cache and spill directory) and answers
  mixed batches bit-identically to a single :class:`QueryService`.

Throughput versus rebuild-per-query is measured by the registered
``service_throughput`` experiment (``benchmarks/bench_service_throughput.py``).
"""

from .cache import DEFAULT_CACHE_BYTES, IndexCache
from .fingerprint import (
    array_fingerprint,
    index_fingerprint,
    params_fingerprint,
    stats_provenance_digest,
)
from .index import (
    INDEX_KINDS,
    SemiLocalIndex,
    build_lcs_index,
    build_lis_index,
    lcs_index_fingerprint,
    lis_index_fingerprint,
)
from .requests import (
    OPS,
    REQUESTS_SCHEMA_ID,
    REQUESTS_SCHEMA_VERSION,
    QueryRequest,
    ServiceRequestError,
    TargetSpec,
    parse_requests_document,
    parse_requests_lenient,
    parse_target,
)
from .serving import QueryService, RequestOutcome, ServiceBatchResult
from .sharding import (
    ConsistentHashRing,
    IndexInfo,
    ShardConfig,
    ShardRouter,
    ShardWorkerCrash,
)

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "IndexCache",
    "array_fingerprint",
    "index_fingerprint",
    "params_fingerprint",
    "stats_provenance_digest",
    "INDEX_KINDS",
    "SemiLocalIndex",
    "build_lis_index",
    "build_lcs_index",
    "lis_index_fingerprint",
    "lcs_index_fingerprint",
    "OPS",
    "REQUESTS_SCHEMA_ID",
    "REQUESTS_SCHEMA_VERSION",
    "QueryRequest",
    "ServiceRequestError",
    "TargetSpec",
    "parse_requests_document",
    "parse_requests_lenient",
    "parse_target",
    "QueryService",
    "RequestOutcome",
    "ServiceBatchResult",
    "ConsistentHashRing",
    "IndexInfo",
    "ShardConfig",
    "ShardRouter",
    "ShardWorkerCrash",
]
