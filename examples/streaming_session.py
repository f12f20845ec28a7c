"""Streaming sessions: exact sliding-window LIS/LCS without rebuilds.

Run with::

    PYTHONPATH=src python examples/streaming_session.py

A :class:`repro.streaming.StreamingLIS` session keeps a sliding window as
combed seaweed leaf blocks (the ⊡ monoid of Theorem 1.3 split into 64-element
pieces) instead of rebuilding: each tick re-combs only the leaves it touched
and answers by a seam sweep across the leaves, yet every answer is exact —
identical to rebuilding the product from scratch on the current window.
"""

import numpy as np

from repro.lis import lis_length
from repro.streaming import StreamingLCS, StreamingLIS
from repro.workloads import make_sequence, make_string_pair

WINDOW = 512
SLIDE = 64
TICKS = 8


def lis_session() -> None:
    stream = make_sequence("random", WINDOW + TICKS * SLIDE, seed=7).astype(float)
    session = StreamingLIS(window=WINDOW)
    session.push(stream[:WINDOW])
    print(f"warm window of {WINDOW}: LIS = {session.lis_length()}")

    for tick in range(TICKS):
        lo = WINDOW + tick * SLIDE
        session.push(stream[lo : lo + SLIDE])  # slide by SLIDE symbols
        lis = session.lis_length()
        # Rank-window probes read the same leaves; full sweeps comb the window.
        middle = session.rank_interval(WINDOW // 4, 3 * WINDOW // 4)
        assert lis == lis_length(session.window_values())  # exact, every tick
        print(f"tick {tick}: LIS={lis}  LIS(middle ranks)={middle}")

    sweep = session.window_sweep(width=128, step=64)
    print(f"rank-window sweep (width 128): {sweep.tolist()}")
    counters = session.counters()
    print(
        f"cost: {counters['blocks_built']} leaf combs, {counters['seam_sweeps']} seam "
        f"sweeps, {counters['leaves']} leaves / {counters['nbytes']} bytes resident"
    )


def lcs_session() -> None:
    s, t = make_string_pair("correlated_pair", 256, seed=3, alphabet=8)
    session = StreamingLCS(s[:128], window=128)
    session.push(t[:128])
    print(f"\nLCS(S, T-window) = {session.lcs_length()}")
    for tick in range(4):
        session.push(t[128 + tick * 32 : 160 + tick * 32])
        print(f"tick {tick}: LCS={session.lcs_length()} (T window of {session.t_length})")
    print(f"T sub-window sweep (width 64): {session.window_sweep(64, 32).tolist()}")


if __name__ == "__main__":
    lis_session()
    lcs_session()
