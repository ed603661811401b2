"""A host-speed probe timed while a pass runs, to cancel the host's speed phases.

On a shared host the same pass can take 1.8 times as long in one minute as in
the next, and such phases last from seconds to minutes, so whole runs fall
into them.  `HostProbe` runs a fixed kernel of the benchmark's own on a
wall-clock timer (every `INTERVAL_S` seconds) inside the measuring process.  The
kernel is a chain of small numpy calls on a state the size of ladder1d's
finest level, i.e. the per-call cost that dominates dgcentral's time march.
Of the kernels tried (this one, the same chain on a ladder2d-sized state,
interpreted Python, and all three together) it tracked the host's phases
best on all three workloads.  It takes ~0.9 ms, so the probe adds ~4% to
the run.

`timed` measures one pass: its wall time, its net time (wall time minus the
probe time spent inside it) and the probe samples taken during it.  The pass's
time in probe units is net / (mean probe sample), i.e. the pass's cost measured
against a fixed piece of work run on the same CPU at the same moments.  The
kernel is not dgcentral code, so no change to the package moves its time.

The samples run in a SIGALRM handler, i.e. in the main thread between two
bytecodes; they touch no state of the package.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
_DOF = 960  # ladder1d's finest state
_CALLS = 40


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(20010382)
        self._state = rng.random(_DOF)
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.spent = 0.0
        self._saved_handler = None

    def kernel(self) -> float:
        x = self._state
        for _ in range(_CALLS):
            x = 0.5 * (np.roll(x, 1) - x) + self._state
        return float(x[0])

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.kernel()
        duration = perf_counter() - start
        self.samples.append((start, duration))
        self.spent += duration

    def __enter__(self) -> "HostProbe":
        self._saved_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)

    def timed(self, fn):
        """Run `fn()`; return its result, its wall time, its net time and the mean probe sample during it."""
        first, spent = len(self.samples), self.spent
        start = perf_counter()
        result = fn()
        end = perf_counter()
        net = end - start - (self.spent - spent)
        # A pass shorter than one interval takes the latest sample before it.
        inside = [d for _, d in self.samples[first:]] or [self.samples[-1][1]]
        return result, end - start, net, statistics.fmean(inside)
