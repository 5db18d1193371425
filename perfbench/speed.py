"""Rescale a pass's times to a fixed reference speed of the machine.

The benchmark's machine is shared, and its speed drifts by tens of percent
over seconds to minutes.  Raw wall times of the same pass spread by about
30% across runs.  So while a pass runs, a timer signal interrupts it every
``INTERVAL_S`` and times a fixed piece of pure-Python work (Fraction
arithmetic and dict stores, the operations triplex spends its time in).
Its duration gives the machine's speed at that moment, relative to
``REFERENCE_S``.  A time interval is then converted into the seconds it
would have taken at the reference speed by integrating the measured speed
over it.  The probe costs about 0.5% of the pass.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.05
# duration of one probe inside a pass at the reference speed: about the
# fastest the baseline machine (2.1 GHz Xeon vCPU, Python 3.11) was seen to
# run, so reference seconds read close to the wall seconds of a quiet run
REFERENCE_S = 190e-6


def _probe_work():
    d = {}
    x = Fraction(1, 3)
    for i in range(60):
        d[(i, i)] = x * i + x
    return d


class SpeedProbe:
    """Samples the machine's speed on a timer; maps raw times to reference time."""

    def __init__(self):
        self.times = array("d")   # monotonic time at the end of each probe
        self.speeds = array("d")  # REFERENCE_S / probe duration
        self._cumulative = None
        self._previous = None

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, *_):
        collecting = gc.isenabled()
        gc.disable()
        begin = time.monotonic()
        _probe_work()
        end = time.monotonic()
        if collecting:
            gc.enable()
        self.times.append(end)
        self.speeds.append(REFERENCE_S / (end - begin))

    def reference_time(self, t):
        """Reference seconds from the first sample to raw monotonic time ``t``.

        The speed measured by a sample holds over the interval that ends at
        it; before the first sample the first speed holds, after the last
        the last.
        """
        times, speeds = self.times, self.speeds
        if self._cumulative is None:
            cum = array("d", [0.0])
            for i in range(1, len(times)):
                cum.append(cum[-1] + (times[i] - times[i - 1]) * speeds[i])
            self._cumulative = cum
        i = bisect.bisect_left(times, t)
        if i == 0:
            return (t - times[0]) * speeds[0]
        if i == len(times):
            return self._cumulative[-1] + (t - times[-1]) * speeds[-1]
        return self._cumulative[i - 1] + (t - times[i - 1]) * speeds[i]

    def elapsed(self, a, b):
        """Reference seconds between raw monotonic times ``a`` and ``b``."""
        return self.reference_time(b) - self.reference_time(a)
