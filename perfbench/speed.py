"""The speed of the CPU a worker runs on, sampled while the worker runs.

On the host this benchmark was written on, the same CPU work takes up to
twice as long from one moment to the next: the CPU switches between a fast
and a slow state every few seconds (README.md, "Noise").  So the worker
(worker.py) pins itself to one CPU and, while the workload call runs, a
monitor thread on that CPU times a fixed reference kernel every PERIOD_S
seconds.  A time measured
over the call, multiplied by the mean speed the kernel saw, is in seconds at
reference speed.  The kernel calls no solenoidlab code, so a change of the
library moves these times and a change of the host's state does not.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

#: Seconds one reference_kernel() call takes at reference speed, about its
#: time in the fast state on the machine named in README.md.
REFERENCE_KERNEL_S = 0.001
#: Seconds between two kernel samples while a call runs.
PERIOD_S = 0.05
#: Kernel samples taken right after set-up, for the speed of the set-up.
SETUP_SAMPLES = 20

# 100 x 4 = 400-element temporaries: below 500 elements numpy keeps the GIL,
# so the main thread cannot run in the middle of a sample.
_X = np.linspace(0.0, 3.0, 100)
_K = np.arange(4.0)
_A = np.array([0.0, 1.0, 0.3, 0.1])
_B = np.array([0.0, 0.0, 0.2, 0.0])


def reference_kernel() -> None:
    """Fixed work of the two kinds the workloads' slow-state times follow:
    interpreter bytecode and small numpy calls (a 4-term Fourier sum)."""
    s = 0
    for i in range(6_000):
        s += i * i % 7
    for _ in range(40):
        ang = 2.0 * np.pi * np.multiply.outer(_X - np.floor(_X), _K)
        (np.cos(ang) * _A + np.sin(ang) * _B).sum(axis=1)


def timed_kernel() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def mean_speed(durations: list[float]) -> float:
    """Mean of REFERENCE_KERNEL_S / duration: the mean speed over the
    samples, which are evenly spaced in time."""
    return statistics.fmean(REFERENCE_KERNEL_S / d for d in durations)


def setup_speed() -> float:
    """Speed right after set-up, which lasts well under the few seconds a
    state lasts.  The first call warms numpy's ufunc caches and is not
    counted."""
    timed_kernel()
    return mean_speed([timed_kernel() for _ in range(SETUP_SAMPLES)])


class Monitor:
    """Samples the kernel at ``start()`` and then every PERIOD_S seconds
    until ``stop()``.  ``busy_s`` is the wall time the samples took from the
    call, ``cpu_s`` the monitor thread's CPU time."""

    def __init__(self):
        self.durations: list[float] = []
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-monitor", daemon=True)

    def _run(self) -> None:
        self.durations.append(timed_kernel())
        while not self._stop.wait(PERIOD_S):
            self.durations.append(timed_kernel())
        self.cpu_s = time.thread_time()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """End the sampling; the samples are complete once this returns."""
        self._stop.set()
        self._thread.join()

    @property
    def busy_s(self) -> float:
        return sum(self.durations)

    @property
    def speed(self) -> float:
        return mean_speed(self.durations)
