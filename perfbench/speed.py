"""Machine-speed probe: rescales measured times to a fixed reference speed.

On a shared host the same single-threaded code runs up to about 1.5x slower
in phases that last from seconds to minutes, with CPU time equal to wall
time, so neither clock separates a slower program from a slower machine.  A
``SpeedProbe`` interrupts the process every ``INTERVAL_S`` of wall time
(``SIGALRM``) and times one fixed calibration block that does not touch
rdlab: numpy work on arrays the size of the workloads' (1601 x 3 and 4 x 4)
and interpreter work (calls, attribute and dict access), the mix the
workloads run.  A time measured over ``[t0, t1]`` is rescaled by the
machine's speed around that interval,

    reference_s = program_s * REF_BLOCK_S * mean(1 / block_s),

the mean taken over the blocks timed within ``WINDOW_S`` of the interval.
Blocks are sampled uniformly in wall time, so ``mean(1 / block_s)`` is the
mean speed over the interval.  Time spent in the probe is subtracted before
rescaling.  A change to rdlab moves the program time and leaves the blocks
alone, so it moves the rescaled time by the same share.
"""

from __future__ import annotations

import signal
import time
from array import array
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.05
WINDOW_S = 0.25
# about the block's time when it interrupts the workloads on a 2-vCPU shared
# x86-64 host (Python 3.11, numpy 2.4, one BLAS thread); rescaled times are
# seconds on a machine that runs the block this fast
REF_BLOCK_S = 4.5e-4

_FIELD = np.linspace(0.0, 1.0, 1601 * 3).reshape(1601, 3)
_SMALL = np.linspace(0.5, 1.5, 16).reshape(4, 4)


class _Cell:
    def __init__(self, x):
        self.x = x

    def scaled(self, y):
        return self.x * y


def calibration_block():
    """Fixed work, about REF_BLOCK_S long; returns a float so none is skipped.

    Array work and interpreter work slow down by different shares in a slow
    phase, and the workloads mix the two; the block runs both.
    """
    acc = 0.0
    for _ in range(3):
        y = np.sqrt(_FIELD * 0.5 + 1.0)
        acc += float(np.abs(y[1:] - y[:-1]).max())
    m = _SMALL
    for k in range(30):
        m = m @ _SMALL * 0.25 + _SMALL
        acc += float(m[k % 4, 1])
        acc += sum(range(30))
    cell, seen = _Cell(1.5), {}
    for k in range(60):
        v = _SMALL[k % 4]
        acc += float(v @ _SMALL[:, k % 4]) * cell.scaled(0.5)
        seen[k % 7] = [acc, k]
        acc += len(seen) + abs(-k)
    return acc


class SpeedProbe:
    """Times the calibration block on a wall-clock timer while running."""

    def __init__(self):
        self.when = array("d")       # block midpoints, perf_counter seconds
        self.took = array("d")       # block durations
        self.stolen_s = 0.0          # wall time spent inside the probe

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        calibration_block()
        t1 = time.perf_counter()
        self.when.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)
        self.stolen_s += time.perf_counter() - t0

    @contextmanager
    def running(self):
        """Sample the machine's speed for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def clock(self):
        """A (wall seconds, seconds spent in the probe so far) reading.

        Read again if the probe ran in between, so that both halves agree.
        """
        while True:
            stolen = self.stolen_s
            wall = time.perf_counter()
            if stolen == self.stolen_s:
                return wall, stolen

    def speed(self, t0, t1):
        """REF_BLOCK_S * mean(1 / block_s) around ``[t0, t1]``.

        Falls back to every block of the run if none lies in the window.
        """
        when = np.frombuffer(self.when)
        rate = 1.0 / np.frombuffer(self.took)
        near = (when >= t0 - WINDOW_S) & (when <= t1 + WINDOW_S)
        return REF_BLOCK_S * float(rate[near].mean() if near.any()
                                   else rate.mean())
