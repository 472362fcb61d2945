"""Host speed measured alongside the cases, to scale latencies to one speed.

The 2-CPU hosts this benchmark runs on switch between full and reduced
speed (another tenant on the same core) many times a second, and the share
of slow time drifts over seconds by up to half; CPU time slows with wall
time, and no hardware counters are exposed.  ``SpeedMeter`` therefore runs
a short fixed pure-Python reference loop, with the same kind of work as the
library (exact fractions, dicts, tuples), from a timer signal every
INTERVAL_S seconds while the cases run.  The mean reference duration from
WINDOW_S before a case to WINDOW_S after it measures the host's speed
there; the case's latency minus the meter's own time, times REFERENCE_S
over that mean, is its latency at reference speed.

The reference loop never calls the library, so a change to the library
cannot move it.
"""

from __future__ import annotations

import bisect
import signal
from array import array
from itertools import accumulate
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.005
# Duration of reference_loop at full speed on a 2-CPU Intel Xeon host
# (Python 3.11); scaled latencies read as seconds at that speed.
REFERENCE_S = 0.00005
# Samples this close to a case measure the speed it ran at.
WINDOW_S = 0.1
MIN_SAMPLES = 3

_STEP = Fraction(2, 7)


def reference_loop():
    acc = {}
    x = Fraction(1, 3)
    for k in range(10):
        key = (k % 7, k % 5)
        acc[key] = acc.get(key, 0) + x * k
        x += _STEP
    return acc


class SpeedMeter:
    """Reference-loop samples taken from SIGALRM while it is running."""

    def __init__(self, on_sample=None):
        self.times = array("d")
        self.durations = array("d")
        self.spent = 0.0  # total time inside the sampler
        self.on_sample = on_sample
        self._previous = None
        self._prefix = None

    def _sample(self, signum, frame):
        # The untimed first pass brings the loop back into cache after the
        # case's own data evicted it, so the timed pass measures the host.
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        reference_loop()
        t2 = perf_counter()
        self.times.append(t1)
        self.durations.append(t2 - t1)
        self.spent += t2 - t0
        if self.on_sample is not None:
            self.on_sample(t2 - t0)

    def start(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample(None, None)
        self._prefix = [0.0] + list(accumulate(self.durations))

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    def local_reference(self, t0, t1):
        """Mean reference duration over [t0 - WINDOW_S, t1 + WINDOW_S],
        widened to the MIN_SAMPLES nearest samples when that holds fewer.
        Call after ``stop``."""
        times = self.times
        lo = bisect.bisect_left(times, t0 - WINDOW_S)
        hi = bisect.bisect_right(times, t1 + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            if lo > 0:
                lo -= 1
            if hi < len(times) and hi - lo < MIN_SAMPLES:
                hi += 1
        return (self._prefix[hi] - self._prefix[lo]) / (hi - lo)

    def scale(self, t0, t1):
        """Factor taking a latency measured over [t0, t1] to reference speed."""
        return REFERENCE_S / self.local_reference(t0, t1)
