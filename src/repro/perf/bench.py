"""Micro-benchmarks of the core hot paths (``python -m repro perf``).

One perf run times a fixed, seeded case grid over the layers that bottom out
in ``core.seaweed.multiply``:

========== =============================================================
group      what is timed
========== =============================================================
multiply   full-permutation ``P_A ⊡ P_B`` (iterative engine) at
           ``n ∈ {256 .. 16384}`` per fan-in
reference  the retained recursive oracle at the headline size, asserted
           bit-identical to the iterative engine (the speedup denominator)
semilocal  a from-scratch ``value_interval_matrix`` build (Theorem 1.3)
streaming  the amortised sliding-window tick of the PR-4 aggregator
service    a warm cached query batch through the PR-3 serving layer
========== =============================================================

Wall-clock is useless across machines, so every timing is also recorded
*cpu-normalised*: a fixed NumPy calibration kernel is timed first and every
case reports ``normalized = seconds / calibration_seconds`` (dimensionless
multiples of the calibration kernel).  The regression gate
(:mod:`repro.perf.regression`) compares normalized values between runs, which
cancels machine speed to first order.

The run lands in the standard schema-v1 experiment artifact (an ad-hoc
``perf_core`` spec) with an additive ``perf`` section carrying the
calibration and the headline iterative-vs-reference speedup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..core.permutation import random_permutation
from ..core.seaweed import multiply_permutations_iterative, multiply_permutations_reference
from ..experiments.runner import ExperimentResult
from ..experiments.spec import ExperimentSpec, PointResult
from ..experiments.artifacts import result_to_artifact
from ..lis.semilocal import value_interval_matrix
from ..service import IndexCache, QueryRequest, QueryService, TargetSpec
from ..streaming import StreamingLIS
from ..workloads import make_sequence

__all__ = [
    "PerfCase",
    "perf_cases",
    "calibrate_cpu",
    "run_perf",
    "HEADLINE_MULTIPLY_N",
]

#: The headline size: the ≥3x multiply speedup claim is pinned at this n.
HEADLINE_MULTIPLY_N = 4096

#: Seed convention of every perf workload (fixed: artifacts must reproduce).
_SEED = 2024


@dataclass(frozen=True)
class PerfCase:
    """One timed case: identifying params plus a kernel factory."""

    name: str
    group: str
    params: Dict[str, Any]
    #: Included in ``--quick`` runs (the full grid is a superset, so a full
    #: baseline can gate quick CI runs).
    quick: bool
    #: ``make() -> kernel``; the zero-argument kernel is what is timed.
    make: Callable[[], Callable[[], Any]] = field(compare=False)
    #: Operations per kernel call; recorded seconds are divided by this
    #: (e.g. the streaming case runs ``ticks`` slides per call and reports
    #: the amortised per-tick cost).
    ops: int = 1

    def identity(self) -> Dict[str, Any]:
        """The point-matching key used by the regression gate."""
        merged = {"case": self.name, "group": self.group}
        merged.update(self.params)
        return merged


def _permutation_pair(n: int):
    rng = np.random.default_rng(_SEED + n)
    return random_permutation(n, rng), random_permutation(n, rng)


def _make_multiply(n: int, fanin: int) -> Callable[[], Callable[[], Any]]:
    def factory() -> Callable[[], Any]:
        pa, pb = _permutation_pair(n)

        def kernel():
            result = multiply_permutations_iterative(pa, pb, fanin=fanin)
            assert result.size == n
            return result

        return kernel

    return factory


def _make_reference(n: int) -> Callable[[], Callable[[], Any]]:
    def factory() -> Callable[[], Any]:
        pa, pb = _permutation_pair(n)
        expected = multiply_permutations_iterative(pa, pb)

        def kernel():
            result = multiply_permutations_reference(pa, pb)
            # The acceptance identity: reference and iterative engines are
            # bit-identical on the headline workload.
            assert result == expected, "reference and iterative engines diverge"
            return result

        return kernel

    return factory


def _make_semilocal(n: int) -> Callable[[], Callable[[], Any]]:
    def factory() -> Callable[[], Any]:
        sequence = make_sequence("random", n, seed=_SEED)

        def kernel():
            return value_interval_matrix(sequence)

        return kernel

    return factory


def _make_streaming(n: int, ticks: int, slide: int) -> Callable[[], Callable[[], Any]]:
    def factory() -> Callable[[], Any]:
        stream = make_sequence("random", n + ticks * slide, seed=_SEED).astype(np.float64)
        # Warm build outside the timed region: the case measures the
        # amortised incremental slide, not the one-off O(n log n) build the
        # streaming subsystem exists to avoid.  One kernel call = `ticks`
        # slides (wrapping through the stream, like the spec timer does).
        session = StreamingLIS(window=n)
        session.push(stream[:n])
        session.lis_length()
        state = {"offset": n}

        def kernel():
            for _ in range(ticks):
                if state["offset"] + slide > len(stream):
                    state["offset"] = n
                session.push(stream[state["offset"] : state["offset"] + slide])
                state["offset"] += slide
                session.lis_length()

        return kernel

    return factory


def _make_service(n: int, batch: int) -> Callable[[], Callable[[], Any]]:
    def factory() -> Callable[[], Any]:
        rng = np.random.default_rng(_SEED)
        i = rng.integers(0, max(1, n - 1), size=batch)
        j = np.minimum(i + rng.integers(1, max(2, n // 4), size=batch), n)
        target = TargetSpec(kind="sequence", workload="random", n=n, seed=_SEED)
        requests = [
            QueryRequest(op="substring_query", target=target, request_id="perf", i=i, j=j)
        ]
        service = QueryService(cache=IndexCache(), mode="sequential")
        service.submit(requests)  # cold build outside the timed region

        def kernel():
            outcome = service.submit(requests)
            assert outcome.outcomes[0].cache_hit
            return outcome

        return kernel

    return factory


def perf_cases() -> List[PerfCase]:
    """The registered case grid (full runs take all, quick runs the subset)."""
    cases: List[PerfCase] = []
    for n in (256, 1024, HEADLINE_MULTIPLY_N, 16384):
        for fanin in (2, 4):
            cases.append(
                PerfCase(
                    name=f"multiply_n{n}_h{fanin}",
                    group="multiply",
                    params={"n": n, "fanin": fanin},
                    quick=(n <= 1024 and fanin == 2),
                    make=_make_multiply(n, fanin),
                )
            )
    cases.append(
        PerfCase(
            name=f"multiply_reference_n{HEADLINE_MULTIPLY_N}",
            group="reference",
            params={"n": HEADLINE_MULTIPLY_N, "fanin": 2},
            quick=False,
            make=_make_reference(HEADLINE_MULTIPLY_N),
        )
    )
    cases.append(
        PerfCase(
            name="multiply_reference_n1024",
            group="reference",
            params={"n": 1024, "fanin": 2},
            quick=True,
            make=_make_reference(1024),
        )
    )
    for n, quick in ((1024, True), (4096, False)):
        cases.append(
            PerfCase(
                name=f"semilocal_build_n{n}",
                group="semilocal",
                params={"n": n},
                quick=quick,
                make=_make_semilocal(n),
            )
        )
    for n, ticks, slide, quick in ((512, 4, 32, True), (4096, 8, 64, False)):
        cases.append(
            PerfCase(
                name=f"streaming_tick_n{n}",
                group="streaming",
                params={"n": n, "ticks": ticks, "slide": slide},
                quick=quick,
                make=_make_streaming(n, ticks, slide),
                ops=ticks,
            )
        )
    for n, batch, quick in ((512, 32, True), (4096, 256, False)):
        cases.append(
            PerfCase(
                name=f"service_batch_n{n}",
                group="service",
                params={"n": n, "batch": batch},
                quick=quick,
                make=_make_service(n, batch),
            )
        )
    return cases


def calibrate_cpu(repeats: int = 5) -> float:
    """Seconds of the fixed calibration kernel (min over ``repeats``).

    The kernel — an argsort plus a searchsorted over a fixed seeded array —
    exercises the same NumPy machinery the engine leans on, so its timing
    tracks effective machine speed for these workloads.
    """
    rng = np.random.default_rng(_SEED)
    values = rng.integers(0, 1 << 30, size=1 << 16).astype(np.int64)
    best = float("inf")
    for _ in range(max(1, int(repeats))):
        started = time.perf_counter()
        order = np.argsort(values, kind="stable")
        np.searchsorted(values[order], values)
        best = min(best, time.perf_counter() - started)
    return best


def _time_kernel(kernel: Callable[[], Any], repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, int(repeats))):
        started = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - started)
    return best


def run_perf(
    *,
    quick: bool = False,
    repeats: int = 2,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the case grid and return the schema-v1 artifact document.

    The additive ``perf`` section records the calibration and the headline
    iterative-vs-reference multiply speedup (both engines timed in the same
    process on the same operands).
    """
    calibration = calibrate_cpu()
    selected = [case for case in perf_cases() if (case.quick or not quick)]

    wall_started = time.perf_counter()
    points: List[PointResult] = []
    by_name: Dict[str, float] = {}
    for case in selected:
        if progress is not None:
            progress(f"perf: {case.name}")
        kernel = case.make()
        seconds = _time_kernel(kernel, repeats) / max(1, int(case.ops))
        by_name[case.name] = seconds
        points.append(
            PointResult(
                params=case.identity(),
                metrics={
                    "seconds": float(seconds),
                    "normalized": float(seconds / calibration),
                },
                seconds=float(seconds),
            )
        )
    wall_seconds = time.perf_counter() - wall_started

    headline_n = 1024 if quick else HEADLINE_MULTIPLY_N
    iterative_key = f"multiply_n{headline_n}_h2"
    reference_key = f"multiply_reference_n{headline_n}"
    speedup = None
    if iterative_key in by_name and reference_key in by_name and by_name[iterative_key] > 0:
        speedup = by_name[reference_key] / by_name[iterative_key]

    spec = ExperimentSpec(
        name="perf_core",
        title="Core hot-path micro-benchmarks (python -m repro perf)",
        claim="allocation-lean iterative multiply engine (>= 3x vs the recursive reference)",
        grid={},
        point=dict,
        columns=["case", "group", "seconds", "normalized"],
    )
    result = ExperimentResult(
        spec=spec,
        points=points,
        grid={},
        fixed={"quick": bool(quick), "repeats": int(repeats)},
        quick=bool(quick),
        workers=1,
        wall_clock_seconds=wall_seconds,
    )
    document = result_to_artifact(result)
    document["perf"] = {
        "calibration_seconds": float(calibration),
        "headline_n": int(headline_n),
        "multiply_speedup_vs_reference": (
            float(speedup) if speedup is not None else None
        ),
        "cases": len(points),
    }
    return document
