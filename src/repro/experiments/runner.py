"""The experiment runner: grid execution, optional process fan-out, reports.

The runner is deliberately dumb: it expands the spec's grid, calls the point
function once per grid point (serially or across a ``multiprocessing`` pool),
wraps the results in :class:`ExperimentResult`, and runs the spec's
cross-point checks.  Rendering (text tables) delegates to
:mod:`repro.analysis.report`; persistence delegates to
:mod:`repro.experiments.artifacts`.

Grid points are independent by construction — every point function derives
its inputs from explicit seed parameters, never from shared mutable state —
which is what makes the process fan-out safe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.report import format_cell, format_table
from ..analysis.serialize import to_jsonable
from .spec import ExperimentSpec, PointResult, expand_grid, get_spec, is_registered

__all__ = ["ExperimentResult", "run_experiment"]


@dataclass
class ExperimentResult:
    """Everything produced by one experiment run."""

    spec: ExperimentSpec
    points: List[PointResult]
    grid: Dict[str, Sequence[Any]]
    fixed: Dict[str, Any]
    quick: bool
    workers: int
    wall_clock_seconds: float
    checks_passed: Optional[bool] = None
    check_error: str = ""

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def title(self) -> str:
        return self.spec.title

    def to_table(self, columns: Optional[Sequence[str]] = None) -> str:
        """Render the grid points as the experiment's text table."""
        columns = list(columns if columns is not None else self.spec.columns)
        rows = [[format_cell(point.row().get(column)) for column in columns] for point in self.points]
        return format_table(columns, rows)

    def series(self, x: str, y: str) -> Tuple[List[Any], List[Any]]:
        """Extract one (x, y) series, ordered by ``x``, across the grid points."""
        pairs = sorted(
            (point.row()[x], point.row()[y])
            for point in self.points
            if x in point.row() and y in point.row()
        )
        return [pair[0] for pair in pairs], [pair[1] for pair in pairs]


def _execute_with(spec: ExperimentSpec, fixed: Dict[str, Any], params: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any], float]:
    """Run one grid point against an in-hand spec object."""
    started = time.perf_counter()
    metrics = dict(spec.point(**fixed, **params))
    seconds = time.perf_counter() - started
    return params, to_jsonable(metrics), seconds


def _execute_point(task: Tuple[str, Dict[str, Any], Dict[str, Any]]) -> Tuple[Dict[str, Any], Dict[str, Any], float]:
    """Run one grid point; module-level so it pickles into worker processes."""
    spec_name, fixed, params = task
    return _execute_with(get_spec(spec_name), fixed, params)


def run_experiment(
    spec: "ExperimentSpec | str",
    *,
    quick: bool = False,
    workers: int = 1,
    overrides: Optional[Mapping[str, Sequence[Any]]] = None,
    run_checks: bool = True,
    raise_on_check_failure: bool = True,
) -> ExperimentResult:
    """Execute every grid point of an experiment and collect the results.

    Parameters
    ----------
    spec:
        A registered :class:`ExperimentSpec` or its registry name.
    quick:
        Use the spec's reduced ``quick_grid`` / ``quick_fixed`` (for smoke
        tests and CI).
    workers:
        Number of worker processes for the grid fan-out.  ``1`` (the default)
        runs in-process; values > 1 use a ``multiprocessing`` pool.  Note the
        fan-out parallelises *wall-clock* execution of independent simulator
        runs — the simulated round/space accounting is unaffected.
    overrides:
        Replacement value lists for swept grid parameters, e.g.
        ``{"delta": [0.5]}`` to restrict the sweep.
    run_checks:
        Run the spec's cross-point consistency checks (on by default; the
        checks are part of the reproduction claim).
    raise_on_check_failure:
        Re-raise the first failing check (default — the pytest wrappers rely
        on it).  When false, the failure is only recorded on the result
        (``checks_passed=False`` / ``check_error``) so callers like the CLI
        can still render the table and persist the artifact.
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    grid = spec.effective_grid(quick=quick, overrides=overrides)
    fixed = spec.effective_fixed(quick=quick)
    grid_points = expand_grid(grid)

    started = time.perf_counter()
    workers = max(1, int(workers))
    # The pool path ships only (name, fixed, params) to the workers, which
    # re-resolve the spec from the registry — so it needs a registered spec;
    # ad-hoc spec objects (tests, exploration) always run in-process.
    if workers > 1 and len(grid_points) > 1 and is_registered(spec):
        import multiprocessing

        tasks = [(spec.name, fixed, params) for params in grid_points]
        with multiprocessing.Pool(processes=min(workers, len(tasks))) as pool:
            outcomes = pool.map(_execute_point, tasks, chunksize=1)
    else:
        outcomes = [_execute_with(spec, fixed, params) for params in grid_points]
    wall_clock = time.perf_counter() - started

    points = [PointResult(params=params, metrics=metrics, seconds=seconds) for params, metrics, seconds in outcomes]
    result = ExperimentResult(
        spec=spec,
        points=points,
        grid={key: list(values) for key, values in grid.items()},
        fixed=dict(fixed),
        quick=quick,
        workers=workers,
        wall_clock_seconds=wall_clock,
    )
    if run_checks and spec.checks is not None:
        try:
            spec.checks(points)
            result.checks_passed = True
        except AssertionError as exc:
            result.checks_passed = False
            result.check_error = str(exc)
            if raise_on_check_failure:
                raise
    return result
