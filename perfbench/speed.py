"""Machine-speed calibration for the benchmark's timings.

On a shared two-core virtual machine the speed of the same pure-Python loop drifts by
up to 2x over tens of seconds (other tenants, frequency changes).  Medians
of raw wall times then move by more than any regression bound worth having.
A `Speed` samples a fixed probe between operations and scales each
operation's wall time by `reference / probe time`, taking the probe samples
just before and just after the operation.  A change to argstable cannot move
the probe, so the scaled times still move one for one with the program's
own speed.  The raw times are printed next to the scaled ones.

Two probes: a pure-Python loop with the solver's mix of dict, list and int
work, for operations that spend their time in Python code, and the start of
a bare interpreter, for `python -m argstable` processes that are mostly
interpreter start.  Which operation takes which probe is `run.clock_for`.
The process is pinned to one CPU (see `pin`) so that children run where the
probes ran.
"""

from __future__ import annotations

import bisect
import gc
import os
import time

# Probe times on the machine the bounds were set on, in its usual state
# (two-core x86-64 virtual machine, CPython 3.11).
PYTHON_LOOP_S = 0.0024
INTERPRETER_START_S = 0.065


def pin() -> None:
    """Run this process, and the processes it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def python_loop() -> float:
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            table: dict[int, int] = {}
            hits = 0
            for i in range(4000):
                table[i & 511] = i
                for lit in (i, -i, i + 1):
                    value = table.get(abs(lit) & 511)
                    if value is not None and (lit > 0) == (value & 1 == 0):
                        hits += 1
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class Speed:
    def __init__(self, probe, reference: float, every: float):
        self.probe, self.reference, self.every = probe, reference, every
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        value = self.probe()
        self.times.append(time.perf_counter())
        self.samples.append(value)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= self.every

    def scale(self, start: float, end: float) -> float:
        """reference / probe time around [start, end]; 1.0 before any sample."""
        if not self.samples:
            return 1.0
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return 2 * self.reference / (self.samples[before] + self.samples[after])

    def median_scale(self) -> float:
        ordered = sorted(self.samples)
        return self.reference / ordered[len(ordered) // 2] if ordered else 1.0


def in_process() -> Speed:
    return Speed(python_loop, PYTHON_LOOP_S, every=0.2)


def interpreter(start) -> Speed:
    """`start()` runs a bare `python -c pass` the way the operations' processes
    are started and returns its seconds."""
    return Speed(start, INTERPRETER_START_S, every=0.5)
