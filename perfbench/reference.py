"""A fixed reference loop that tracks how fast the host runs right now.

The benchmark's host is shared: other tenants make it take up to half as
long again, in stretches of milliseconds to minutes, and its speed
drifts by tens of percent between runs minutes apart.  So while the
passes run, a timer interrupts them every PERIOD_S seconds to run one
reference `unit`, and the time of every unit is kept.  The units
sample the same stretch of host time as the passes, finely enough that
both see the same mix of fast and slow.  Timings are then reported in
reference seconds:

    reference seconds = raw seconds * REF_S / (mean raw time of one unit)

A change of host speed scales both raw times alike and cancels; a change
to rclab moves only the pass time.  `clock()` leaves out the time spent
in units, so the passes are timed without them.  `unit` does the kind of
work rclab does (interpreter dispatch, int hashing, dict inserts and
lookups) and allocates nothing the collector counts but one dict, so it
does not shift when the passes' collections run.  Never change `unit`,
`REF_S` or `PERIOD_S`: every normalised metric is measured in their
terms, and results from different versions cannot be compared.
"""

from __future__ import annotations

import signal
import time

# Nominal time of one `unit`: about its median on the 2-core VM the
# bounds were set on, so that reference seconds read close to raw ones.
REF_S = 0.0025

# Time between the starts of two units while the timer runs.
PERIOD_S = 0.02

# Units in the shortest burst.
MIN_UNITS = 5


def unit():
    d = {}
    for i in range(20000):
        d[i ^ 0x5BD1] = i & 7
    return sum(d.values())


class Reference:
    """Raw times of every reference unit run so far."""

    def __init__(self):
        self.times = []
        self.inside = 0.0  # seconds spent in units run by the timer
        self._previous = None

    def burst(self, seconds):
        """Run units for `seconds` (at least MIN_UNITS of them)."""
        clock = time.perf_counter
        start = clock()
        n = 0
        while n < MIN_UNITS or clock() - start < seconds:
            t0 = clock()
            unit()
            self.times.append(clock() - t0)
            n += 1

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        unit()
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self.inside += time.perf_counter() - t0

    def __enter__(self):
        """Start running a unit every PERIOD_S seconds."""
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self):
        """Seconds, not counting those spent in units run by the timer."""
        while True:
            inside = self.inside
            now = time.perf_counter()
            if self.inside == inside:  # no unit ran in between
                return now - inside

    def scale(self):
        """Factor that turns raw seconds into reference seconds."""
        return REF_S * len(self.times) / sum(self.times)
