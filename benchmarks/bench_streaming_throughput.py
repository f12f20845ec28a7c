"""E12 — Streaming: amortised sliding-window recomposition vs rebuild-per-tick.

Thin pytest wrapper over the registered ``streaming_throughput`` experiment
spec.  The spec's per-point assertions compare every tick's answers against a
rebuild-from-scratch DP oracle and the aggregator's root product against a
from-scratch seaweed build; the cross-point checks assert that the slide
path rebuilds leaf blocks rather than the whole window and an amortised
per-tick speedup of at least 10x over rebuild-per-tick at n >= 4096.  The
timed kernel is one steady-state slide tick (push + exact LIS answer).
"""

from repro.experiments import get_spec, run_experiment

from conftest import emit

SPEC = "streaming_throughput"


def test_streaming_throughput(benchmark):
    spec = get_spec(SPEC)
    result = run_experiment(spec)
    emit(
        f"Streaming throughput (n={result.fixed['n']}, slide={result.fixed['slide']}, "
        f"ticks={result.fixed['ticks']})",
        result.to_table(),
    )

    benchmark(spec.timer())
