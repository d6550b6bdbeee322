"""Machine-speed sampling, used to scale timings to a reference speed.

The speed of a shared machine drifts over seconds to minutes (README.md has
the measurements).  A fixed pure-Python kernel drifts with it.  The sampler
runs the kernel every ``PERIOD_S`` while fkdv works, from a SIGALRM handler
in the one thread there is, and once more whenever the harness asks.  A
timed stretch is then scaled by the mean of ``REFERENCE_S / c`` over the
kernel times ``c`` sampled inside it and its ``NEIGHBOURS`` nearest samples
on each side, so a long operation is scaled by the speed the machine had
while it ran.  The time spent sampling is left out of every timed stretch.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager

REFERENCE_S = 0.003  # kernel seconds at the reference speed (2-CPU x86-64 VM, CPython 3.11.7)
PERIOD_S = 0.2
NEIGHBOURS = 3


def _kernel(n: int = 4500) -> int:
    # Fixed interpreter-bound work (ints, tuples, a dict, a list sort) that
    # touches neither fkdv nor any module fkdv uses.  Never change it: every
    # scaled time depends on its speed.
    acc = 0
    table: dict[int, int] = {}
    items: list[tuple[int, int]] = []
    for i in range(n):
        key = (i * 7919) % 1021
        acc = (acc * 31 + table.get(key, i)) % 1_000_003
        table[key] = acc
        items.append((key, acc))
        if len(items) > 64:
            items.sort()
            del items[:32]
    return acc


class SpeedSampler:
    def __init__(self):
        self.starts: list[float] = []  # perf_counter at the start of each sample
        self.costs: list[float] = []   # kernel seconds of each sample
        self.paused = 0.0              # seconds spent in timer-driven samples

    def sample(self) -> None:
        """Run the kernel once, with the garbage collector paused so that a
        collection of fkdv's heap does not land in its time."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _kernel()
            t1 = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.starts.append(t0)
        self.costs.append(t1 - t0)

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.paused += time.perf_counter() - t0

    @contextmanager
    def periodic(self):
        """Sample every PERIOD_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, t0: float, t1: float, seconds: float) -> float:
        """``seconds`` of work done between perf_counter times t0 and t1,
        expressed at the reference speed.  Needs a sample after t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        window = self.costs[max(0, lo - NEIGHBOURS):hi + NEIGHBOURS]
        return seconds * REFERENCE_S * statistics.fmean(1 / c for c in window)
