"""Shared helpers: checkout layout, CPU pinning, child processes, statistics.

Every other module of the benchmark imports this one first; importing it
puts the checkout's ``src`` directory at the front of ``sys.path`` so the
benchmark always measures the program that sits next to it, never an
installed copy.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import signal
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Root of the checkout (the directory that holds ``BENCHMARK.json``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
#: Scratch space for span files; git-ignored, inside the checkout.
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

DEFAULT_SEED = 0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed launch...)."""


def require_program() -> None:
    """Fail unless the program's sources are in this checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to measure: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for the program's processes: this checkout's sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("REPRO_FAULT_PLAN", None)
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ----------------------------------------------------------------- CPU layout
def cpu_layout() -> Dict[str, Optional[int]]:
    """Generator on the first allowed CPU, program on the second.

    With fewer than two CPUs nothing is pinned.  Unpinned, the scheduler
    moved the server between cores and ``query_warm`` throughput became
    bimodal (101-195/s over 12 fresh-server runs); pinned it held 256-293/s.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return {"generator": None, "program": None, "cpus": len(cpus)}
    return {"generator": cpus[0], "program": cpus[1], "cpus": len(cpus)}


def pin(pid: int, cpu: Optional[int]) -> None:
    if cpu is not None:
        os.sched_setaffinity(pid, {cpu})


_SPINNER = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while True:\n"
    "    pass\n"
)


@contextlib.contextmanager
def busy_cpus(layout) -> Iterator[None]:
    """Keep the pinned CPUs out of the idle state with ``SCHED_IDLE`` loops.

    On a virtual machine an idle CPU halts, and waking it again (a timer, a
    packet) waits on the hypervisor, which is slow and erratic while other
    tenants are busy.  The loops run only when nothing else is runnable and
    yield at once.  Without them, five alternating 10 s ``query_warm``
    windows gave 183-237/s and p90 10.6-16.4 ms; with them 240-256/s and
    9.5-10.1 ms.  Where the program's CPU stays busy and the generator just
    waits (``build_cold``, ``mpc_lis``), five alternating 20 s runs with and
    without them showed no difference, so they are not started there.
    """
    cpus = [cpu for cpu in (layout["generator"], layout["program"]) if cpu is not None]
    spinners = [launch([sys.executable, "-c", _SPINNER], cpu) for cpu in cpus]
    try:
        yield
    finally:
        for proc in spinners:
            proc.kill()
            stop(proc)


# -------------------------------------------------------------- processes
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """In the child before exec: SIGKILL it if the benchmark dies first."""
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def launch(argv: Sequence[str], cpu: Optional[int]) -> subprocess.Popen:
    """Start a child process from the checkout root, pinned to ``cpu``.

    Called only while the benchmark has no other threads, so the
    ``preexec_fn`` is safe.
    """
    proc = subprocess.Popen(
        list(argv),
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        preexec_fn=_die_with_parent,
    )
    # The child is still importing (single-threaded); threads it starts
    # later inherit this mask.
    pin(proc.pid, cpu)
    return proc


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGINT, wait, then kill: every child is reaped before we return."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# ------------------------------------------------------------- statistics
def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile by linear interpolation (numpy's default method)."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    h = (len(ordered) - 1) * q / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# --------------------------------------------------------- host diagnostic
def host_calibration(layout) -> Dict[str, Dict[str, float]]:
    """Host speed right now, on the program's CPU and on the generator's.

    A fixed pure-Python loop and a NumPy kernel, timed with this process
    moved to each CPU in turn.  Reported beside the metrics, never as one,
    so that two sets of runs that disagree can be traced to host drift.
    """
    from repro.perf.bench import calibrate_cpu

    home = os.sched_getaffinity(0)
    speeds: Dict[str, Dict[str, float]] = {}
    try:
        for role in ("program", "generator"):
            pin(0, layout[role])
            best = float("inf")
            for _ in range(5):
                started = time.perf_counter()
                acc = 0
                for i in range(200_000):
                    acc = (acc + i * i) % 1_000_003
                best = min(best, time.perf_counter() - started)
            speeds[role] = {"python_loop_ms": best * 1e3, "numpy_kernel_ms": calibrate_cpu() * 1e3}
    finally:
        os.sched_setaffinity(0, home)
    return speeds


def cpu_ticks() -> Dict[int, Tuple[int, int]]:
    """``cpu -> (steal, total)`` clock ticks since boot, from ``/proc/stat``."""
    ticks: Dict[int, Tuple[int, int]] = {}
    with open("/proc/stat", "r", encoding="ascii") as fh:
        for line in fh:
            name, *fields = line.split()
            if name.startswith("cpu") and name[3:].isdigit():
                values = [int(v) for v in fields[:8]]
                ticks[int(name[3:])] = (values[7], sum(values))
    return ticks


def steal_share(before: Dict[int, Tuple[int, int]], after: Dict[int, Tuple[int, int]],
                layout) -> Dict[str, float]:
    """Share of each pinned CPU's time between two readings that the
    hypervisor ran something else on it (``steal`` in ``/proc/stat``)."""
    shares: Dict[str, float] = {}
    for role in ("program", "generator"):
        cpu = layout[role]
        if cpu is not None:
            steal = after[cpu][0] - before[cpu][0]
            total = after[cpu][1] - before[cpu][1]
            shares[role] = steal / total if total else 0.0
    return shares


def op_summary(latencies_s: List[float], window_s: float, correct: int) -> Dict[str, float]:
    """The end-to-end timing metrics of one timed window."""
    ms = [x * 1e3 for x in latencies_s]
    return {
        "throughput_per_s": correct / window_s,
        "latency_p50_ms": percentile(ms, 50.0),
        "latency_p90_ms": percentile(ms, 90.0),
    }
