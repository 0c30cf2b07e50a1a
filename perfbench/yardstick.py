"""A fixed piece of pure-Python work that measures how fast the machine runs.

The benchmark's host lends it a share of a shared CPU whose speed drifts by
up to 1.6 times from one minute to the next and swings by as much within a
second (see README.md).  A wall-clock time taken in a slow stretch reads
slower although the program did the same work.  So the benchmark samples
this yardstick all through the work it times, in the same process, and
scales the time of each operation by `REFERENCE_S` over the yardstick's
mean time while that operation ran: the figures are those of a machine on
which the yardstick takes `REFERENCE_S`.  A change to the program moves its
times and not the yardstick's, so it moves the scaled figures in full.

The samples come from a timer signal every `INTERVAL_S` of wall time, so
that they fall inside long operations as often as between short ones; the
handler's own time is taken off the operation that it interrupted.  An
operation too short to hold `NEAREST` samples is scaled by the `NEAREST`
samples nearest to it in time.

The work imitates the package's inner loops (exact rationals kept in a dict
keyed by exponent tuples) and uses nothing from `poisson_strata`.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# About the yardstick's mean time on the 2-vCPU machine whose figures are in
# README.md, so that scaled figures read close to that machine's seconds.
REFERENCE_S = 0.0003
INTERVAL_S = 0.02
NEAREST = 50


def _work() -> Fraction:
    terms: dict[tuple[int, int, int], Fraction] = {}
    total = Fraction(0)
    for i in range(1, 25):
        key = (i % 7, i % 5, i % 3)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i, 3)
        total += terms[key] * Fraction(1, i)
    return total


class Yardstick:
    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter at each sample's start
        self.samples: list[float] = []  # each sample's duration
        self.spent = 0.0  # seconds spent in the yardstick so far

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        _work()
        sample = time.perf_counter() - t0
        self.starts.append(t0)
        self.samples.append(sample)
        self.spent += sample

    def start(self) -> None:
        """Sample on a timer signal until `stop`."""
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()  # so that even the shortest run has a sample

    def scale(self, start: float, end: float) -> float:
        """The factor that turns a time taken from `start` to `end` (perf_counter
        readings) into a reference-machine time."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        missing = NEAREST - (hi - lo)
        if missing > 0:  # widen evenly, then shift at either end of the run
            lo = max(0, lo - (missing + 1) // 2)
            hi = min(len(self.starts), max(hi, lo + NEAREST))
            lo = max(0, min(lo, hi - NEAREST))
        return REFERENCE_S / statistics.fmean(self.samples[lo:hi])
