"""Host speed, measured next to the timed work, to take speed swings out of times.

On a shared host the same code can run up to about 2x slower for seconds to
minutes at a time, while the kernel records no steal time, and CPU time slows
down with wall time.  Fixed calibration kernels that do not touch mcflab
measure how fast the host runs at a given moment; times are reported at a
reference speed instead of the moment's speed.

Units: `SpeedProbe` runs `kernel` from a SIGALRM handler every PERIOD_S
seconds while a unit is timed.  For a unit of wall time W, with k samples of
durations c_1..c_k taking C in all, the unit's time at reference speed is

    (W - C) * mean(REF_S / c_i)

Samples are evenly spaced in time, so the mean is the unit's average speed
relative to a host on which the kernel takes REF_S.  The handler runs only
between bytecodes of the main thread, so it never changes what the program
computes.

Set-up: numpy is not loaded yet, so `interpreter_speed` times the pure-Python
`py_kernel` just before and just after the set-up, and `setup_reference`
scales the set-up time by their mean.

REF_S and PY_REF_S are constants: each kernel's duration in fast spells on an
Intel Xeon vCPU (2 vCPUs, Python 3.11, numpy 2.4), so on such a host
reference seconds are close to wall seconds in fast spells.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.1
REF_S = 1.4e-3
PY_REF_S = 0.6e-3


def kernel() -> float:
    """About 1.5 ms in three equal parts: interpreter loops, small numpy calls as
    in a Newton loop, and whole-array arithmetic on 4000 nodes.

    Host slow spells slow these three kinds of work by different factors, and
    the workloads mix them differently; their sum tracks all three workloads.
    """
    import numpy as np

    x = np.linspace(0.5, 1.5, 64)
    v = np.linspace(0.5, 1.5, 4000)
    count = 0
    for i in range(240):
        for j in range(30):
            count += (i * j) % 7
    acc = 0.0
    for i in range(240):
        y = x * 1.0001 + 0.5
        acc += float(y[i % 64]) + float(np.dot(y, x))
    for _ in range(30):
        w = np.sqrt(v * 1.0001 + 0.5)
        acc += float((w[2:] - 2.0 * w[1:-1] + w[:-2])[0])
    return acc + count


def py_kernel() -> float:
    """Under a millisecond of float arithmetic, calls and list indexing; no numpy."""
    acc = 0.0
    row = [0.0] * 64
    for i in range(4000):
        x = i * 0.5
        acc += math.sqrt(x + 1.0) / (1.0 + x * x)
        row[i & 63] = acc
        acc -= row[(i * 7) & 63] * 1e-3
    return acc


def interpreter_speed(reps: int = 15) -> float:
    """Median duration of py_kernel over a few back-to-back calls."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        py_kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def setup_reference(wall: float, before: float, after: float) -> float:
    """A set-up's wall time at reference speed, from py_kernel timed around it."""
    return wall * PY_REF_S / (0.5 * (before + after))


class SpeedProbe:
    """Samples `kernel` on a timer while a unit runs.

    The handler stays installed for the life of the process and records only
    between `start` and `stop`, so a late SIGALRM can never hit the default
    action, which would end the process.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._active = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if not self._active:
            return
        self._active = False  # no nested sample if the next tick comes early
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)
        self._active = True

    def start(self) -> None:
        self.samples = []
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._active = False
        return list(self.samples)


def reference_seconds(wall: float, samples: list[float]) -> float:
    """A unit's wall time, less its samples, at reference speed."""
    if not samples:  # a unit shorter than PERIOD_S: sample once right after it
        start = perf_counter()
        kernel()
        return wall * REF_S / (perf_counter() - start)
    return (wall - sum(samples)) * statistics.fmean(REF_S / c for c in samples)
