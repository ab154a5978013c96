"""Calibrated time: seconds as the unloaded reference machine would count them.

The benchmark machine is shared.  A neighbour's load slows this process's
CPU time and wall time alike, by up to half, for seconds at a time, so raw
timings of the same work drift between runs far more than the changes the
benchmark must resolve.  Instead, time is cut into segments at checkpoints;
each checkpoint runs `calibrate()`, a fixed piece of memo-style Python and
small-numpy work, and a segment's raw time is scaled by
NOMINAL_CALIBRATION_S / (mean calibration at its two ends).  The time spent
calibrating is left out.

Checkpoints fall at op boundaries and, at most every MIN_SEGMENT_S, inside
ops when the program makes a verify report, builds a monomial ideal or takes
the homology of one Koszul complex.  Those hooks call the original code
unchanged and add no work to it beyond the checkpoint, which is not timed.
Set-up time is scaled likewise, by NOMINAL_STARTUP_S over `startup_reference()`.
"""
from __future__ import annotations

import bisect
import subprocess
import sys
import time

NOMINAL_CALIBRATION_S = 0.0004  # calibrate() on the unloaded reference machine
NOMINAL_STARTUP_S = 0.05  # startup_reference() on the same machine
STARTUP_REFERENCE = "import argparse, json, statistics, subprocess; print('ready', flush=True)"
MIN_SEGMENT_S = 0.04


def calibrate() -> float:
    """Seconds the calibration work takes now (the least of three tries)."""
    import numpy as np  # the program imports numpy anyway; not before it
    rows = np.arange(64, dtype=np.int64).reshape(16, 4) % 5
    best = float("inf")
    for _ in range(3):  # the least of three drops a preempted one
        start = time.perf_counter()
        memo = {}
        for i in range(1300):
            key = (i % 37, i % 11, i)
            memo[key] = memo.get((key[0], key[1], i - 1), 1) * 3 % 1000003
        for row in rows:
            bool((rows <= row).all(axis=1).any())
        best = min(best, time.perf_counter() - start)
    return best


def startup_reference() -> float:
    """Seconds a bare interpreter takes to start and import a few stdlib
    modules now (the least of two tries).

    Start-up contends for different resources than steady computing (exec,
    page faults, loading shared objects), so set-up time is scaled by this
    instead of by calibrate().
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", STARTUP_REFERENCE],
                              stdout=subprocess.PIPE, text=True) as child:
            child.stdout.readline()
            best = min(best, time.perf_counter() - start)
            child.stdout.read()
            child.wait(timeout=60)
    return best


class CalibratedClock:
    """Maps raw perf_counter readings taken since `start()` to calibrated seconds."""

    def start(self):
        self._cal = calibrate()
        self._ends: list[float] = []      # raw end of each closed segment
        self._starts: list[float] = []    # raw start of each closed segment
        self._scales: list[float] = []
        self._totals: list[float] = [0.0]  # calibrated time before each segment
        self._open = time.perf_counter()

    def checkpoint(self):
        end = time.perf_counter()
        cal = calibrate()
        scale = NOMINAL_CALIBRATION_S / ((self._cal + cal) / 2)
        self._starts.append(self._open)
        self._ends.append(end)
        self._scales.append(scale)
        self._totals.append(self._totals[-1] + (end - self._open) * scale)
        self._cal = cal
        self._open = time.perf_counter()

    def maybe_checkpoint(self):
        if time.perf_counter() - self._open >= MIN_SEGMENT_S:
            self.checkpoint()

    def elapsed(self, raw: float | None = None) -> float:
        """Calibrated seconds from start() to a raw reading in a closed segment,
        or to the last checkpoint."""
        if raw is None:
            return self._totals[-1]
        k = min(bisect.bisect_left(self._ends, raw), len(self._ends) - 1)
        return self._totals[k] + max(raw - self._starts[k], 0.0) * self._scales[k]


class CheckpointHooks:
    """While active, lets the program's own progress trigger checkpoints."""

    def __init__(self, mods, clock: CalibratedClock):
        self.targets = [(mods["verify"].Report, "__init__"),
                        (mods["monomials"].MonomialIdeal, "__init__"),
                        (mods["oracle"], "homology_dims")]
        self.clock = clock
        self._saved = []

    def __enter__(self):
        for owner, name in self.targets:
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._hooked(original))
        return self

    def _hooked(self, original):
        tick = self.clock.maybe_checkpoint

        def hooked(*args, **kwargs):
            result = original(*args, **kwargs)
            tick()
            return result
        return hooked

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False
