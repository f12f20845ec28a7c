"""repro — reproduction of "An Optimal MPC Algorithm for Subunit-Monge Matrix
Multiplication, with Applications to LIS" (Koo, SPAA 2024).

Public API highlights
---------------------
* :mod:`repro.core` — permutation / sub-permutation matrices and sequential
  (sub)unit-Monge multiplication (``repro.core.multiply``): the
  allocation-lean iterative engine and the retained recursive reference
  oracle.
* :mod:`repro.mpc` — a deterministic MPC simulator with round, space and
  communication accounting, plus the standard O(1)-round primitives.
* :mod:`repro.mpc_monge` — the paper's O(1)-round multiplication (Theorem 1.1 /
  1.2) and the O(log n)-round warm-up algorithm.
* :mod:`repro.lis` / :mod:`repro.lcs` — exact LIS in O(log n) rounds
  (Theorem 1.3), LCS via Hunt–Szymanski (Corollary 1.3.1), semi-local variants
  (Corollaries 1.3.2/1.3.3) and sequential baselines.
* :mod:`repro.baselines` — prior-work comparators used to reproduce Table 1.
* :mod:`repro.workloads` / :mod:`repro.analysis` — input generators and
  round-complexity predictions / report formatting for the benchmark harness.
* :mod:`repro.service` — the batched query-serving subsystem (fingerprinted
  semi-local indexes, a byte-budgeted LRU cache with disk spill, and the
  ``QueryService`` behind ``python -m repro serve``).
* :mod:`repro.streaming` — the sliding-window subsystem: a flat list of
  combed leaf blocks (:class:`~repro.streaming.aggregator.SeaweedAggregator`)
  answered by exact seam sweeps, ``StreamingLIS`` / ``StreamingLCS`` session
  objects and the ``python -m repro stream`` driver.
* :mod:`repro.perf` — core hot-path micro-benchmarks, the cpu-normalised
  perf regression gate behind ``python -m repro perf``
  (``results/perf_core.json``) and the append-only perf trend log
  (``results/perf_trend.jsonl``).
* :mod:`repro.obs` — the stdlib-only observability layer: process-safe
  metrics with Prometheus text exposition (``GET /metrics``), span-based
  request tracing (``GET /debug/traces``) and the artifact/trend report
  renderer behind ``python -m repro report``.
* :mod:`repro.experiments` — the declarative experiment registry, runner and
  JSON artifacts behind the ``python -m repro`` CLI.
"""

__version__ = "1.9.0"

from . import (
    analysis,
    baselines,
    core,
    experiments,
    lcs,
    lis,
    mpc,
    mpc_monge,
    obs,
    service,
    streaming,
    workloads,
)

__all__ = [
    "analysis",
    "baselines",
    "core",
    "experiments",
    "lcs",
    "lis",
    "mpc",
    "mpc_monge",
    "obs",
    "service",
    "streaming",
    "workloads",
    "__version__",
]
