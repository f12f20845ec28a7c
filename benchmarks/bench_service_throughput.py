"""E11 — Serving throughput: cached batch querying vs rebuild-per-query.

Thin pytest wrapper over the registered ``service_throughput`` experiment
spec.  Each point checks sampled cached answers against a from-scratch rebuild;
the cross-point checks assert the serving claims: the cache counters are
exercised, and cached batch serving beats the naive rebuild-per-query
pattern by at least 10x at n >= 4096.  The timed kernel is
a *warm* ``QueryService.submit`` (the steady-state serving cost).
"""

from repro.experiments import get_spec, run_experiment

from conftest import emit

SPEC = "service_throughput"


def test_service_throughput(benchmark):
    spec = get_spec(SPEC)
    result = run_experiment(spec)
    emit(
        f"Serving throughput (n={result.fixed['n']}, mode={result.fixed['mode']})",
        result.to_table(),
    )

    benchmark(spec.timer())
