"""Timing, process and statistics helpers shared by every perfbench module.

There is one timing code path, on one clock (:data:`clock`): :class:`Timer`
for in-process phases and :func:`run_child` (around spawn and ``os.wait4``)
for whole processes, which also yields the child's peak RSS.
"""

from __future__ import annotations

import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Repository checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
#: Scratch space for CLI outputs; emptied after every pass.
OUT = ROOT / ".perfbench_out"

#: glibc ``sysconf`` names for the cache sizes (answered from cpuid).
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194

#: Console-script equivalent of the installed ``armkit`` command.
ARMKIT = [sys.executable, "-c",
          "import sys; from armkit.cli import main; sys.exit(main())"]


#: The one clock. CLOCK_MONOTONIC is system-wide on Linux (1 ns resolution),
#: so a stamp taken inside a child process compares with the parent's.
clock = time.monotonic


class Timer:
    """Accumulates wall time per named phase."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        t0 = clock()
        try:
            yield
        finally:
            self.totals[name] = self.totals.get(name, 0.0) + clock() - t0


@dataclass
class ChildRun:
    """One finished child process."""

    argv: List[str]
    started: float       # clock() just before spawn
    ended: float         # clock() just after the exit was reaped
    maxrss_mb: float     # peak resident set size of the child
    returncode: int
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


class ChildFailed(Exception):
    """A child outlived its time limit and was killed, or its launcher
    failed."""


def child_env() -> Dict[str, str]:
    """Environment that makes children import armkit from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: Sequence[str], timeout_s: float,
              capture_dir: Path) -> ChildRun:
    """Run ``argv`` to completion through ``spawn.py``; time it from fork
    to reaped exit and take its peak RSS (see spawn.py for why).

    stdout/stderr go to files under ``capture_dir``, so a large output never
    blocks on a pipe. The child and its launcher are killed and reaped if
    they run longer than ``timeout_s``.
    """
    argv = list(argv)
    capture_dir.mkdir(parents=True, exist_ok=True)
    out_path = capture_dir / "stdout.txt"
    err_path = capture_dir / "stderr.txt"
    report_path = capture_dir / "spawn.json"
    expired = []
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "spawn.py"), str(report_path),
             *argv],
            stdout=fo, stderr=fe, env=child_env(), cwd=ROOT,
            start_new_session=True)

        def _kill(signum, frame):
            expired.append(True)
            os.killpg(proc.pid, signal.SIGKILL)

        old = signal.signal(signal.SIGALRM, _kill)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            proc.wait()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
    if expired:
        _await_group(proc.pid)
        raise ChildFailed(
            f"{' '.join(argv[:4])} ... exceeded {timeout_s:.0f} s")
    try:
        rep = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ChildFailed(f"launcher of {' '.join(argv[:4])} ... exited "
                           f"{proc.returncode} without a report ({exc})")
    return ChildRun(argv=argv, started=rep["started"], ended=rep["ended"],
                    maxrss_mb=rep["maxrss_kib"] / 1024.0,
                    returncode=rep["returncode"],
                    stdout=out_path.read_text(encoding="utf-8",
                                              errors="replace"),
                    stderr=err_path.read_text(encoding="utf-8",
                                              errors="replace"))


def _await_group(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of the killed group ``pgid`` is left."""
    end = clock() + limit_s
    while clock() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def median(values: Sequence[float]) -> float:
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def tail(values: Sequence[float], beyond: int = 10):
    """Highest whole percentile with at least ``beyond`` samples above it.

    Returns (percentile, value, sample count); percentile and value are None
    when there are too few samples for any percentile to qualify.
    """
    vals = sorted(values)
    n = len(vals)
    if n <= beyond:
        return None, None, n
    pct = math.floor(100.0 * (n - beyond) / n)
    rank = max(1, math.ceil(pct / 100.0 * n))  # nearest-rank percentile
    return pct, vals[rank - 1], n


def environment() -> dict:
    """Machine and toolchain facts recorded with every result."""
    import numpy
    import scipy

    def sysconf(name: int) -> Optional[int]:
        try:
            value = os.sysconf(name)
        except (ValueError, OSError):
            return None
        return value if value > 0 else None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(v, 2) for v in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_bytes": sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": sysconf(_SC_LEVEL3_CACHE_SIZE),
    }


def repeat_for(seconds: float, step, at_least: int = 1) -> list:
    """Call ``step(i)`` until another call would end past ``seconds``.

    Runs at least ``at_least`` times; the estimate for the next call is the
    median duration of the calls so far (closed loop: one call at a time).
    """
    start = clock()
    results, durations = [], []
    while True:
        t0 = clock()
        results.append(step(len(results)))
        durations.append(clock() - t0)
        if (len(results) >= at_least and
                clock() - start + median(durations) > seconds):
            return results

