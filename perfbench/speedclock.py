"""Times work in reference seconds, corrected for the host's drifting speed.

On a shared host the speed of one vCPU drifts by up to a factor of two over
seconds to minutes, with CPU time equal to wall time, so wall times of the
same work taken minutes apart differ by more than any useful bound.
:class:`SpeedClock` interleaves a fixed probe with the work it times and
reports each interval of work as if the host ran the probe in its reference
time:

    reference seconds = wall seconds of work * reference time / probe seconds

where the probe time is the mean of the probes just before and after the
piece of work, each taken as the median of itself and its two neighbours so
that one disturbed probe does not skew the work next to it.  Two probes, each matched to the work it scales:

- :func:`probe`, for Python work inside one process: plain Python that
  allocates no container (no garbage collection runs inside it).  While the
  clock runs, ``SIGALRM`` interrupts the work every ``interval`` seconds to
  run it; the probe's own time is left out of the work.
- :func:`process_probe`, for whole child processes (start-up, imports, a CLI
  command): a child interpreter that imports the standard modules framoid
  imports and runs :func:`probe` ``CHILD_PROBES`` times, timed by the parent
  from spawn to exit, between children.  The parent may sit on another vCPU
  than the child, and process start-up drifts apart from Python speed, so
  the in-process probe alone does not fit here.

Neither probe touches framoid, so a change to framoid moves the work's time
and never the probe's.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

perf_counter = time.perf_counter
_SCRIPT = str(Path(__file__).resolve())

# Probe times on a 2-vCPU Xeon host in its fast periods; constants, so
# reference seconds from different runs and commits compare directly.
REFERENCE_PROBE_S = 0.0025
REFERENCE_PROCESS_S = 0.1
PROBE_ROUNDS = 12000
CHILD_PROBES = 4

_TABLE = {i: (i * 7) % 97 for i in range(97)}
_ROW = list(range(97))
_SLOTS = dict.fromkeys(range(16), 0)


def _step(x: int) -> int:
    return _TABLE[x % 97] + _ROW[(x * 13) % 97]


def probe() -> float:
    """Seconds taken by a fixed mix of calls, dict and list reads and writes
    and integer arithmetic."""
    t = perf_counter()
    acc = 0
    for i in range(PROBE_ROUNDS):
        acc = (acc + _step(i)) & 0xFFFF
        _SLOTS[i & 15] = acc
    return perf_counter() - t


def process_probe(env: dict | None = None) -> float:
    """Seconds from spawning ``python speedclock.py`` to its exit."""
    t = perf_counter()
    subprocess.run([sys.executable, _SCRIPT], env=env, check=True, timeout=60)
    return perf_counter() - t


class SpeedClock:
    """Probes the host's speed around and during timed work.

    ``start()`` probes and, if ``interval`` is set, arms a timer that probes
    every ``interval`` seconds; ``stop()`` disarms it and probes again.
    ``reference(a, b)`` converts an interval of ``perf_counter`` readings
    taken between the two into reference seconds.  ``probe_fn`` and
    ``reference_s`` choose the probe and its reference time.
    """

    def __init__(self, interval: float | None = 0.1, probe_fn=probe,
                 reference_s: float = REFERENCE_PROBE_S):
        self.interval = interval
        self.probe_fn = probe_fn
        self.reference_s = reference_s
        # one row per probe: time it began, time it ended, its duration
        self.begins: list[float] = []
        self.ends: list[float] = []
        self.probes: list[float] = []
        self._smoothed: list[float] = []
        self._previous = None

    def mark(self) -> None:
        """Probe now; a clock without a timer is probed only by calls to
        ``start``, ``mark`` and ``stop``."""
        begin = perf_counter()
        took = self.probe_fn()
        self.begins.append(begin)
        self.probes.append(took)
        self.ends.append(perf_counter())

    def _tick(self, signum, frame) -> None:
        self.mark()

    def start(self) -> "SpeedClock":
        self.mark()
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.mark()

    def reference(self, a: float, b: float) -> float:
        """Reference seconds of the work done from ``a`` to ``b``, probes
        excluded; each piece of work between two probes is scaled by the mean
        of those two probes, smoothed."""
        probes = len(self.probes)
        if len(self._smoothed) != probes:
            # median of each probe and its neighbours; at either end, of the
            # three probes nearest to it
            lows = (min(max(k - 1, 0), max(probes - 3, 0)) for k in range(probes))
            self._smoothed = [statistics.median(self.probes[low:low + 3]) for low in lows]
        smoothed = self._smoothed
        first = bisect.bisect_right(self.begins, a)
        last = bisect.bisect_left(self.begins, b)
        total = 0.0
        begin = a
        for k in range(first, last + 1):
            end = self.begins[k] if k < last else b
            speed = smoothed[max(k - 1, 0)] + smoothed[min(k, probes - 1)]
            total += (end - begin) * 2 * self.reference_s / speed
            if k < last:
                begin = self.ends[k]
        return total

    def wall(self, a: float, b: float) -> float:
        """Wall seconds of the work done from ``a`` to ``b``, probes excluded."""
        first = bisect.bisect_right(self.begins, a)
        last = bisect.bisect_left(self.begins, b)
        inside = sum(self.ends[k] - self.begins[k] for k in range(first, last))
        return b - a - inside


if __name__ == "__main__":
    # the body of process_probe's child
    import argparse, dataclasses, fractions, json, logging, random, re, typing  # noqa
    for _ in range(CHILD_PROBES):
        probe()
