"""Machine-speed reference for a shared, noisy host.

On a host whose speed drifts by tens of percent within seconds, a pass's wall
time says as much about the neighbours as about the program. While a pass
runs, `SpeedProbe` times a small fixed kernel every PERIOD_S seconds from a
SIGALRM handler in the benchmark's own thread. The pass's wall time, less the
probe's own time, is scaled by the mean of NOMINAL_S / (kernel time) over
its samples: times are reported in reference-speed seconds, the seconds the
pass would take on a host where the kernel takes NOMINAL_S. The kernel mixes
the kinds of work the pipeline does (small-array numpy row sorts, scalar
float loops, dict and string building) and uses nothing from noisekit, so no
program change moves it.
"""
from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.004  # a round figure near one kernel run on a 2-CPU x86-64 VM
PERIOD_S = 0.25


def _kernel() -> int:
    rng = np.random.default_rng(0)
    total = 0
    for _ in range(6):
        rows = np.unique(rng.integers(0, 4, size=(512, 8), dtype=np.uint8), axis=0)
        total += int(rows.shape[0])
    acc = 0.0
    for i in range(2000):
        p = i / 2000.0
        acc += (0.5 - (2.0 / 3.0) * p + (4.0 / 9.0) * p * p) ** 2
    table = {format(i, "010b"): i * acc for i in range(240)}
    return total + len(json.dumps(table, sort_keys=True))


def kernel_seconds() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def speed_scale() -> float:
    """Reference-speed seconds per wall second, from back-to-back kernel runs."""
    return NOMINAL_S / statistics.median(kernel_seconds() for _ in range(9))


class SpeedProbe:
    """Samples the kernel periodically while active; see the module docstring."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0  # wall time inside the handler, to take off the pass

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent_s

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """(reference-speed seconds per wall second, probe seconds) since `mark`.

        A stretch too short for a sample is scaled by back-to-back runs now.
        """
        count, spent = mark
        new = self.samples[count:]
        scale = statistics.fmean(NOMINAL_S / s for s in new) if new else speed_scale()
        return scale, self.spent_s - spent
