"""Host speed, measured by a fixed reference computation between requests.

On a shared host the same request runs up to twice as slowly from one
second to the next, and whole minutes run slower than others; the program
cannot be told from the machine by wall time alone.  ``reference()`` is a
fixed computation that does not touch finitude: Python integer and
``Fraction`` arithmetic and small complex numpy arrays, the kinds of work
the program does.  Timed right before and after a request, it tracks the
host's speed: in a noisy spell a computation of the same three kinds,
timed around each of 25 repeats of one curve request, correlated with the
request's time at 0.89, and scaling cut the requests' coefficient of
variation from 0.20 to 0.10; in a quiet spell both vary by under 1% and
scaling adds 0.2%.  A request's wall time times
``REFERENCE_SECONDS / reference time`` reads what the request would take
on a host where the reference takes ``REFERENCE_SECONDS``.  A change to
finitude cannot change the reference.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# Nominal reference time, between the reference's time in quiet spells of
# the 2-core host the benchmark was written on (9 ms) and in busy ones
# (18 ms).  Only the unit of the scaled times depends on it.
REFERENCE_SECONDS = 0.015


def reference():
    total = 0
    for i in range(80000):
        total += (i * i) % 7
    acc = Fraction(0)
    for i in range(1, 1400):
        acc += Fraction(i % 13 + 1, i % 17 + 1)
    z = np.linspace(0, 1, 16) + 1j * np.linspace(1, 0, 16)
    for _ in range(1000):
        z = z * (0.5 + 0.25j) + 1.0
    return total, acc, z


def measure():
    """Wall seconds of one reference()."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Meter:
    """Interleaves reference timings with requests.

    ``calibrate()`` is called before the first request; ``served()``
    after each request calibrates again once ``interval`` seconds have
    passed since the last calibration.  Each request gets the mean of the
    reference times just before and just after it (``factors()``), so
    requests too short to be bracketed one by one share the calibrations
    around their group."""

    def __init__(self, interval):
        self.interval = interval
        self.times = []   # reference seconds, in order
        self.slots = []   # per request, the index in times of the one before
        self._last = None

    def calibrate(self):
        self.times.append(measure())
        self._last = time.perf_counter()

    def served(self):
        """A request was just served; calibrate if it is time."""
        self.slots.append(len(self.times) - 1)
        if time.perf_counter() - self._last >= self.interval:
            self.calibrate()

    def factors(self):
        """Per request, REFERENCE_SECONDS / mean reference time around it."""
        if self.slots and self.slots[-1] == len(self.times) - 1:
            self.calibrate()
        return [2.0 * REFERENCE_SECONDS / (self.times[k] + self.times[k + 1])
                for k in self.slots]
