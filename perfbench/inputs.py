"""Seeded inputs of the three workloads.

Everything here is a pure function of the ``--seed`` argument: the same seed
gives byte-identical request bodies, target lists and solver inputs, and the
program under test receives only these generated inputs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

import numpy as np

#: Sequence length of the warm indexes (``query_warm``).
WARM_N = 2048
#: Length of each string of the warm LCS pair.
LCS_N = 128
#: Distinct ``query_warm`` batches; the timed loop cycles through them.
WARM_POOL = 64
# Sizes vary across ops on purpose.  A shared host can switch between speed
# states for seconds at a time; with equal-cost ops the per-op latencies then
# split into two modes, and the share of time spent in each decides on which
# mode p50 or p90 lands, so they jump from run to run.  Spread-out op costs
# make the percentiles move smoothly, like the mean.
#: Lengths of the inline sequences ``build_cold`` sends (uniform, mean 1024).
COLD_SIZES = (768, 1280)
#: Lengths of the ``mpc_lis`` inputs, solved one at a time, cycling.
MPC_SIZES = tuple(range(384, 640, 16))

_STREAM_WARM, _STREAM_COLD, _STREAM_COLD_SETUP, _STREAM_MPC = 1, 2, 3, 4


def encode(document: Any) -> bytes:
    return json.dumps(document, separators=(",", ":"), sort_keys=True).encode("utf-8")


def _envelope(requests: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {"schema": "repro.service.requests", "version": 2, "requests": requests}


def _windows(rng: np.random.Generator, upper: int, count: int):
    a = rng.integers(0, upper + 1, size=count)
    b = rng.integers(0, upper + 1, size=count)
    return np.minimum(a, b).tolist(), np.maximum(a, b).tolist()


def near_sorted(rng: np.random.Generator, n: int) -> np.ndarray:
    """The identity with ``n // 8`` short-range swaps (a long LIS)."""
    out = np.arange(n, dtype=np.int64)
    for _ in range(n // 8):
        i = int(rng.integers(0, n - 1))
        j = min(n - 1, i + int(rng.integers(1, 4)))
        out[i], out[j] = out[j], out[i]
    return out


def _mixed_sequence(stream: int, seed: int, k: int, n: int) -> np.ndarray:
    """Input ``k`` of a stream: random permutations and near-sorted, alternating."""
    rng = np.random.default_rng([seed, stream, k])
    if k % 2 == 0:
        return rng.permutation(n).astype(np.int64)
    return near_sorted(rng, n)


# ------------------------------------------------------------------ query_warm
def warm_targets(seed: int) -> Dict[str, Any]:
    """Named registry targets of the warm set.

    Six sequences get position indexes (substring and sweep queries), three
    of them also value indexes (rank-interval queries), and one string pair
    an LCS index.
    """
    rng = np.random.default_rng([seed, _STREAM_WARM])
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=7)]
    position = [{"workload": "random", "n": WARM_N, "seed": s} for s in seeds[:3]]
    position += [{"workload": "near_sorted", "n": WARM_N, "seed": s} for s in seeds[3:6]]
    return {
        "position": position,
        "value": position[0::2],
        "lcs": {"string_workload": "correlated_pair", "n": LCS_N, "seed": seeds[6]},
    }


def warm_setup_body(targets: Dict[str, Any]) -> bytes:
    """One batch that builds every index of the warm set."""
    requests = [dict(t, op="lis_length", id=f"p{k}") for k, t in enumerate(targets["position"])]
    requests += [
        dict(t, op="rank_interval_query", x=0, y=WARM_N, id=f"v{k}")
        for k, t in enumerate(targets["value"])
    ]
    requests.append(dict(targets["lcs"], op="lcs_length", id="lcs"))
    return encode(_envelope(requests))


def warm_pool(seed: int, targets: Dict[str, Any]) -> List[bytes]:
    """The distinct mixed v2 batches of ``query_warm``.

    Each: an 8-window ``substring_query`` and a ``window_sweep`` on a
    position index, a 4-window ``rank_interval_query`` on a value index,
    and on every fourth batch a 4-window LCS ``substring_query``.
    """
    rng = np.random.default_rng([seed, _STREAM_WARM, 1])
    bodies = []
    for k in range(WARM_POOL):
        pos = targets["position"][int(rng.integers(len(targets["position"])))]
        i, j = _windows(rng, WARM_N, 8)
        width = int(rng.choice([128, 256, 512]))
        val = targets["value"][int(rng.integers(len(targets["value"])))]
        x, y = _windows(rng, WARM_N, 4)
        requests = [
            dict(pos, op="substring_query", i=i, j=j, id="sub"),
            dict(pos, op="window_sweep", width=width, step=width // 2, id="sweep"),
            dict(val, op="rank_interval_query", x=x, y=y, id="rank"),
        ]
        if k % 4 == 3:
            li, lj = _windows(rng, LCS_N, 4)
            requests.append(dict(targets["lcs"], op="substring_query", i=li, j=lj, id="lcs"))
        bodies.append(encode(_envelope(requests)))
    return bodies


# ------------------------------------------------------------------ build_cold
def cold_body(seed: int, k: int, *, setup: bool = False) -> bytes:
    """Batch ``k``: ``lis_length`` plus a 4-window ``substring_query``.

    Both carry the same fresh inline sequence, so the batch builds exactly
    one ``lis:position`` index.  Set-up batches draw from their own stream,
    so no timed batch repeats a sequence the server has seen.
    """
    stream = _STREAM_COLD_SETUP if setup else _STREAM_COLD
    rng = np.random.default_rng([seed, stream, k, 1])
    n = int(rng.integers(COLD_SIZES[0], COLD_SIZES[1] + 1))
    sequence = _mixed_sequence(stream, seed, k, n).tolist()
    i, j = _windows(rng, n, 4)
    return encode(
        _envelope(
            [
                {"op": "lis_length", "sequence": sequence, "id": "len"},
                {"op": "substring_query", "sequence": sequence, "i": i, "j": j, "id": "sub"},
            ]
        )
    )


# --------------------------------------------------------------------- mpc_lis
def mpc_inputs(seed: int) -> List[np.ndarray]:
    return [_mixed_sequence(_STREAM_MPC, seed, k, n) for k, n in enumerate(MPC_SIZES)]
