"""Host-speed sampling: how fast this host runs right now, while the
program runs.

The benchmark's host is shared, and its neighbours slow every process on
it by up to half for stretches of seconds.  A timer signal interrupts the
measuring process every ``INTERVAL_S`` of wall time and runs
:func:`kernel`, a fixed piece of work that shares no code with the
program.  Each sample's *speed* is ``KERNEL_REFERENCE_S`` over the CPU
time the kernel took: 1 on the quiet reference host, 0.5 on a host at
half its speed.  Samples are evenly spaced in time, so a window's time
less the time spent sampling, times the mean speed of its samples, is
the time the window's work would have taken on the reference host: its
*reference seconds*.  The mean is trimmed of the fastest and slowest
tenth of samples.  The program's code never runs inside the kernel, so a
change to the program moves reference seconds as it moves raw ones.

The kernel is timed in CPU time, not wall time, so that the program's own
pool workers, which share the host's cores with it, do not read as a slow
host.  It mixes, in about equal shares of its time, interpreted
arithmetic, dict inserts and lookups, and numpy scalar indexing and
comparison in a Python loop (the forest's predict is made of these).
All of it is interpreter-bound, like the workloads: vectorised numpy
calls and a random gather from a large array were tried too and slowed
less than the workloads under heavy contention.  Its data is small, so
the program's own cache footprint barely changes its speed.

Interval timers are not inherited across ``fork``, so pool workers are
never interrupted.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

__all__ = ["INTERVAL_S", "KERNEL_REFERENCE_S", "SAMPLER", "Sampler", "kernel", "reference_seconds"]

#: Seconds between samples; a sample costs about 0.5% of that.
INTERVAL_S = 0.05
#: CPU seconds :func:`kernel` takes on the quiet reference host (see README.md).
KERNEL_REFERENCE_S = 0.00024
#: Share of samples left out at each end of a window's sorted speeds.
TRIM = 0.1

_ROW = np.random.default_rng(0).random(20)


def kernel() -> float:
    """A fixed ~0.25 ms of work in three parts of about equal time."""
    total = 0.0
    for i in range(1500):
        total += i % 7
    table = {}
    for i in range(450):
        table[i] = i * 0.5
    for i in range(450):
        total += table.get(i + 1, 0.0)
    row = _ROW
    for i in range(600):
        if row[i % 20] <= 0.5:
            total += 1
    return total


def _kernel_cpu_seconds() -> float:
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


def trimmed_mean(values: list[float]) -> float:
    """Mean of ``values`` without the lowest and highest ``TRIM`` share."""
    cut = int(len(values) * TRIM)
    return statistics.fmean(sorted(values)[cut : len(values) - cut])


class Sampler:
    """Runs :func:`kernel` on a wall-clock timer signal and records its speed."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.speeds: list[float] = []  # of each sample, reference-host = 1
        self.spent: list[float] = []  # wall seconds of each sample
        self.running = False

    def _tick(self, _signum, _frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        wall = time.perf_counter()
        self.speeds.append(KERNEL_REFERENCE_S / _kernel_cpu_seconds())
        self.spent.append(time.perf_counter() - wall)
        if collecting:
            gc.enable()

    def start(self) -> None:
        """Start sampling afresh, unless already sampling."""
        if not self.running:
            self.speeds, self.spent = [], []
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
            self.running = True

    def stop(self) -> None:
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.running = False

    def mark(self) -> int:
        """A position to pass to :meth:`window` when the window closes."""
        return len(self.speeds)

    def window(self, mark: int) -> dict:
        """The samples taken since ``mark``: their count, the seconds they
        took (to subtract from the window's time) and their trimmed mean
        speed.  A window too short to hold a sample is given the speed of
        three kernel runs made now."""
        taken = self.speeds[mark:]
        if not taken:
            now = statistics.median(_kernel_cpu_seconds() for _ in range(3))
            taken = [KERNEL_REFERENCE_S / now]
        return {
            "samples": len(self.speeds) - mark,
            "sampled_s": sum(self.spent[mark:]),
            "speed": trimmed_mean(taken),
        }


def reference_seconds(seconds: float, window: dict) -> float:
    """``seconds`` measured over ``window``, sampling time taken out, in
    reference-host seconds."""
    return (seconds - window["sampled_s"]) * window["speed"]


#: The measuring process's one sampler.
SAMPLER = Sampler()
