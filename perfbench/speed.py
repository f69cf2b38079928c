"""The CPU speed this process gets, sampled while a workload runs.

On a shared machine the same pure-Python work takes up to ~1.6x longer
when a neighbour loads the core, and that state switches within a second
and can persist for tens of seconds. ``SpeedProbe`` runs a fixed probe
from a SIGALRM handler, so it executes in the workload's own thread, on
the CPU the workload runs on at that moment, between its bytecodes. The
probe builds small tuples in a generator, as ``GroupElement`` does, but
calls no ringrigidity code, so a change to the program never changes it.
While the work runs in pool workers, which occupy every CPU, each sample
is taken on the next CPU in turn, so the samples cover the CPUs the
workers run on rather than wherever the waiting parent happens to wake.

A duration times ``SpeedProbe.factor`` over the same interval is the time
it would have taken at the probe's nominal speed ("reference seconds").
"""

from __future__ import annotations

import os
import time
from array import array

# The C module behind ``signal``: importing ``signal`` itself would load
# ``enum``, which a cold-import measurement must leave to the program.
import _signal


def probe() -> int:
    acc = 0
    for i in range(120):
        cell = tuple(x * 3 % 5 for x in (i % 7, i % 11, i % 13))
        acc += cell[0] + cell[1]
    return acc


class SpeedProbe:
    def __init__(self, interval_s: float, nominal_s: float) -> None:
        self.interval_s = interval_s
        self.nominal_s = nominal_s
        self.samples = array("d")
        self.cpus = sorted(os.sched_getaffinity(0))
        # set while the work runs in pool workers, which occupy every CPU
        self.rotate = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self.rotate:
            cpu = self.cpus[len(self.samples) % len(self.cpus)]
            os.sched_setaffinity(0, {cpu})
        # CPU time of this thread: a probe preempted by a pool worker sharing
        # its CPU must not read as a slow CPU
        start = time.thread_time()
        probe()
        self.samples.append(time.thread_time() - start)
        if self.rotate:
            os.sched_setaffinity(0, self.cpus)

    def __enter__(self):
        # the first calls run before the interpreter has specialized the probe
        for _ in range(50):
            probe()
        self._previous = _signal.signal(_signal.SIGALRM, self._sample)
        _signal.setitimer(_signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        _signal.setitimer(_signal.ITIMER_REAL, 0, 0)
        _signal.signal(_signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, first: int, last: int, fallback: float = 1.0) -> float:
        """Nominal over measured probe time, for the samples in [first, last).

        ``fallback`` stands in when no sample fell in the interval, as for
        a query shorter than ``interval_s``.
        """
        window = self.samples[first:last]
        if not window:
            return fallback
        return self.nominal_s * len(window) / sum(window)
