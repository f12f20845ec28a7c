"""Expected answers from the repository's reference implementations.

Every answer the benchmark receives is compared, after the timed window,
with ``repro.lis.patience.lis_length`` (each window, each rank-filtered
subsequence) or ``repro.lcs.dp_baseline.lcs_length_dp``.  A mismatch makes
the op a failed one.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.lcs.dp_baseline import lcs_length_dp
from repro.lis.patience import lis_length
from repro.workloads.registry import make_sequence, make_string_pair

_TARGET_KEYS = ("workload", "string_workload", "n", "seed", "sequence")


def strict_ranks(values: List[int]) -> List[int]:
    """Ranks for strict LIS: equal values take decreasing ranks by position."""
    order = sorted(range(len(values)), key=lambda p: (values[p], -p))
    ranks = [0] * len(values)
    for rank, p in enumerate(order):
        ranks[p] = rank
    return ranks


class Oracle:
    """Memoised reference answers for the requests of a batch body."""

    def __init__(self) -> None:
        self._targets: Dict[str, Any] = {}
        self._memo: Dict[Tuple, int] = {}

    def _target(self, request: Dict[str, Any]) -> Tuple[str, Any]:
        key = json.dumps({k: request[k] for k in _TARGET_KEYS if k in request}, sort_keys=True)
        if key not in self._targets:
            if "workload" in request:
                value = make_sequence(request["workload"], request["n"], seed=request["seed"])
                value = [int(v) for v in value]
            elif "string_workload" in request:
                s, t = make_string_pair(request["string_workload"], request["n"], seed=request["seed"])
                value = ([int(v) for v in s], [int(v) for v in t])
            else:
                value = list(request["sequence"])
            self._targets[key] = value
        return key, self._targets[key]

    def _memoised(self, key: Tuple, compute) -> int:
        if key not in self._memo:
            self._memo[key] = int(compute())
        return self._memo[key]

    def answer(self, request: Dict[str, Any]) -> Any:
        """The reference result of one v2 request (int, or list of ints)."""
        key, target = self._target(request)
        op = request["op"]
        if op == "lis_length":
            return self._memoised((key, "all"), lambda: lis_length(target))
        if op == "lcs_length":
            return self._memoised((key, "all"), lambda: lcs_length_dp(*target))
        if op == "substring_query":
            windows = zip(request["i"], request["j"])
            if isinstance(target, tuple):
                s, t = target
                return [
                    self._memoised((key, "sub", a, b), lambda: lcs_length_dp(s, t[a:b]))
                    for a, b in windows
                ]
            return [
                self._memoised((key, "sub", a, b), lambda: lis_length(target[a:b]))
                for a, b in windows
            ]
        if op == "window_sweep":
            width, step = request["width"], request.get("step", 1)
            return [
                self._memoised((key, "sub", a, a + width), lambda: lis_length(target[a : a + width]))
                for a in range(0, len(target) - width + 1, step)
            ]
        if op == "rank_interval_query":
            ranks = self._memoised_ranks(key, target)
            windows = zip(np.atleast_1d(request["x"]).tolist(), np.atleast_1d(request["y"]).tolist())
            out = [
                self._memoised(
                    (key, "rank", x, y),
                    lambda: lis_length([v for v, r in zip(target, ranks) if x <= r < y]),
                )
                for x, y in windows
            ]
            return out if isinstance(request["x"], list) else out[0]
        raise ValueError(f"no reference for op {op!r}")

    def _memoised_ranks(self, key: str, target: List[int]) -> List[int]:
        cache_key = (key, "ranks")
        if cache_key not in self._memo:
            self._memo[cache_key] = strict_ranks(target)
        return self._memo[cache_key]

    def expected(self, body: bytes) -> Dict[str, Any]:
        """``request id -> reference result`` for one batch body."""
        document = json.loads(body)
        return {req["id"]: self.answer(req) for req in document["requests"]}


def split_response(raw: bytes) -> Tuple[int, bytes]:
    """``(status, body)`` of a raw HTTP/1.1 response (status 0 if unparsable)."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1]) if sep else 0
    except (IndexError, ValueError):
        status = 0
    return status, body


def check(raw: Optional[bytes], expected: Dict[str, Any]) -> Optional[str]:
    """``None`` when ``raw`` is a 200 whose every result matches, else why not."""
    if raw is None:
        return "connection error"
    status, body = split_response(raw)
    if status != 200:
        return f"HTTP status {status}"
    try:
        results = json.loads(body)["results"]
    except (ValueError, KeyError, TypeError):
        return "unparsable response body"
    got = {}
    for entry in results:
        if not isinstance(entry, dict) or entry.get("status") != "ok":
            return f"request failed: {entry!r:.200}"
        got[entry.get("id")] = entry.get("result")
    if got != expected:
        wrong = sorted(k for k in expected if got.get(k) != expected[k])
        return f"answers differ from the reference for {wrong or sorted(got)}"
    return None
