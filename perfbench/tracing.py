"""Spans around the calls into each layer, recorded from the benchmark's files.

:func:`install` wraps the public functions of the layers in
:data:`SERVER_LAYERS` / :data:`MPC_LAYERS` (and :data:`CORE_LAYERS` for
both) with a recorder: each span keeps its layer, start, end, parent span
and op id in memory, in a list that :func:`aggregate` reduces to per-op
self times when the process ends.  The program's own files are untouched;
the untraced runs import nothing from here.

The current span and op travel in context variables, which the server
copies into its service thread and into the tasks it spawns, so spans of a
coalesced pass land under the request that started it.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("bench_span", default=None)
_OP: contextvars.ContextVar = contextvars.ContextVar("bench_op", default=None)
_IDS = itertools.count(1)
#: ``(layer, start, end, span id, parent span id, op)`` per finished call.
SPANS: List[Tuple[str, float, float, int, Optional[int], Any]] = []

SERVER_LAYERS = [
    ("server.handle", "repro.server.core", "ServerCore.handle"),
    ("service.parse", "repro.service.requests", "parse_requests_lenient"),
    ("service.submit", "repro.service.serving", "QueryService.submit"),
    ("service.cache", "repro.service.cache", "IndexCache.get_or_build"),
    ("core.query", "repro.service.index", "SemiLocalIndex.query_substrings"),
    ("core.query", "repro.service.index", "SemiLocalIndex.query_rank_intervals"),
    ("service.build", "repro.service.index", "build_lis_index"),
    ("service.build", "repro.service.index", "build_lcs_index"),
    ("lis.semilocal", "repro.lis.semilocal", "subsegment_matrix"),
    ("lis.semilocal", "repro.lis.semilocal", "value_interval_matrix"),
]
CORE_LAYERS = [
    ("core.multiply", "repro.core.seaweed", "multiply"),
    ("core.multiply", "repro.core.seaweed", "multiply_permutations"),
    ("core.dense", "repro.core.dense", "multiply_dense"),
    ("core.pointset", "repro.core.combine", "ColoredPointSet.__init__"),
]
MPC_LAYERS = [
    ("lis.mpc", "repro.lis.mpc_lis", "mpc_lis_matrix"),
    ("lis.mpc", "repro.lis.mpc_lis", "_merge_pair"),
    ("mpc_monge.multiply", "repro.mpc_monge.constant_round", "mpc_multiply"),
    ("mpc_monge.multiply", "repro.mpc_monge.subpermutation", "mpc_multiply_subpermutation"),
    ("mpc_monge.combine", "repro.mpc_monge.constant_round", "mpc_combine"),
] + [
    ("mpc.primitives", "repro.mpc.cluster", f"MPCCluster.{name}")
    for name in (
        # Executed primitives; the pipeline charges most rounds directly.
        "sort", "route", "prefix_sum", "broadcast", "rank_search", "inverse_permutation",
        # Round charging and fork/join: what the simulator runs on this path.
        "charge_round", "fork", "join", "run_forked",
    )
]

#: Layers whose per-op self times partition a request's latency.
TIME_LAYERS = [
    "server.transport", "server.handle", "service.parse", "service.submit",
    "service.cache", "core.query", "service.build", "lis.semilocal",
    "core.multiply", "core.dense", "core.pointset", "lis.mpc",
    "mpc_monge.multiply", "mpc_monge.combine", "mpc.primitives",
]
#: Layers whose calls are counted per op.
COUNTED_LAYERS = ["core.multiply", "core.dense", "mpc_monge.multiply"]


def set_op(op: Any) -> contextvars.Token:
    """Tag the spans that follow with ``op`` (undo with :func:`reset_op`)."""
    return _OP.set(op)


def reset_op(token: contextvars.Token) -> None:
    _OP.reset(token)


def _record(layer: str, fn):
    if inspect.iscoroutinefunction(fn):

        # The one coroutine wrapped is ServerCore.handle(method, path, body,
        # headers); the op id arrives in the X-Bench-Op request header.
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            headers = kwargs.get("headers") or (args[4] if len(args) > 4 else None) or {}
            op = headers.get("x-bench-op")
            op_token = _OP.set(int(op) if op is not None else None)
            span_id, parent = next(_IDS), _CURRENT.get()
            token = _CURRENT.set(span_id)
            started = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                _CURRENT.reset(token)
                SPANS.append((layer, started, ended, span_id, parent, _OP.get()))
                _OP.reset(op_token)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id, parent = next(_IDS), _CURRENT.get()
        token = _CURRENT.set(span_id)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            _CURRENT.reset(token)
            SPANS.append((layer, started, ended, span_id, parent, _OP.get()))

    return wrapper


def install(layers) -> None:
    """Wrap every listed function, everywhere a ``repro`` module binds it."""
    for layer, module_name, qualname in layers:
        owner = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, _record(layer, getattr(cls, attr)))
            continue
        original = getattr(owner, qualname)
        wrapped = _record(layer, original)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def import_program(modules) -> None:
    """Import the program's modules before wrapping, so every binding exists."""
    for name in modules:
        importlib.import_module(name)


def aggregate(spans) -> Dict[Any, Dict[str, float]]:
    """Per-op self time (seconds) of each layer, plus ``<layer>.calls`` counts.

    A span's self time is its duration minus its direct children's; nested
    calls into the same layer therefore add up without double counting, and
    a call counts once when its parent is in another layer.
    """
    layer_of = {span[3]: span[0] for span in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for layer, started, ended, span_id, parent, op in spans:
        if parent is not None:
            child_time[parent] += ended - started
    per_op: Dict[Any, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for layer, started, ended, span_id, parent, op in spans:
        if op is None:
            continue
        row = per_op[op]
        row[layer] += (ended - started) - child_time[span_id]
        if parent is None or layer_of.get(parent) != layer:
            row[layer + ".calls"] += 1
        if parent is None:
            row["root_seconds"] += ended - started
    return {op: dict(row) for op, row in per_op.items()}


# ------------------------------------------------------------ budget table
def budget(per_op_ms: Dict[str, float], latency_ms: float) -> List[Dict[str, float]]:
    """Rows of the per-layer budget with Amdahl ceilings.

    ``share`` is the layer's mean self time over the mean end-to-end
    latency; ``ceiling`` is the end-to-end speed-up if that layer cost
    nothing, ``1 / (1 - share)``.
    """
    rows = []
    for layer, ms in per_op_ms.items():
        share = ms / latency_ms if latency_ms > 0 else 0.0
        ceiling = 1.0 / (1.0 - share) if share < 1.0 else float("inf")
        rows.append({"layer": layer, "mean_ms": ms, "share": share, "ceiling": ceiling})
    return sorted(rows, key=lambda row: -row["mean_ms"])


def format_budget(workload: str, rows, latency_ms: float) -> str:
    lines = [
        f"budget {workload}: traced mean latency {latency_ms:.3f} ms",
        f"  {'layer':<22}{'self ms':>10}{'share':>9}{'ceiling':>10}",
    ]
    for row in rows:
        lines.append(
            f"  {row['layer']:<22}{row['mean_ms']:>10.3f}{row['share']:>9.1%}"
            f"{row['ceiling']:>9.2f}x"
        )
    return "\n".join(lines)
