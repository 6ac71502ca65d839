"""Host-speed scaling for the end-to-end times.

A shared host's speed is not steady.  On a 2-vCPU virtual machine a fixed
pure-Python loop swings between speeds up to 1.6x apart, and a slow spell
can outlast a whole 25-second run, so no choice among the repetitions of a
run reads past it.  The benchmark therefore measures the host's speed next
to the work and reports times in *reference seconds*.

While a repetition runs, an interval timer interrupts it every
``INTERVAL_S`` seconds and the signal handler times one call of
``reference_kernel``.  The program's time between two interruptions is
divided by the mean of the two kernel times that bound it and multiplied by
``REFERENCE_S``.  The sum is the repetition's time in reference seconds: how
long it would have taken had the kernel taken ``REFERENCE_S`` throughout.
The handler's own time is not counted.

The kernel is about one fifth interpreter work (sorted-list inserts, dict
counts, float math, string formatting, JSON) and four fifths SHA-256 in C
(PBKDF2).  Of the blends tried, this one followed the program's swings best
on all three workloads; pure interpreter loops swing further than the
program does.  The kernel lives here, outside the program, so a change to
the program moves the scaled time and a change of host speed does not.
Swings of the program that are unlike the kernel's still show through.
"""

import bisect
import hashlib
import json
import math
import signal
import statistics
import time

INTERVAL_S = 0.015
# The kernel's time on a 2.0 GHz Xeon vCPU with Python 3.11 in a fast
# spell: the scale of a reference second.  Fixed, so that runs compare.
REFERENCE_S = 0.0006

_ROUNDS = 110
_PBKDF2_ITERATIONS = 1200


def reference_kernel():
    """One fixed slice of work; returns a checksum."""
    values = []
    counts = {}
    total = 0.0
    for i in range(_ROUNDS):
        x = (i * 7919) % 1009 / 7.0
        bisect.insort(values, x)
        key = i % 61
        counts[key] = counts.get(key, 0) + 1
        total += math.log10(1.0 + x) * 0.5
        pair = (i, x, "s-%04d" % key)
        if pair[1] > 100.0:
            total -= 1.0
    digest = hashlib.pbkdf2_hmac("sha256", json.dumps(counts).encode(),
                                 b"reference", _PBKDF2_ITERATIONS)
    return total + digest[0]


def kernel_seconds(calls=5):
    """Median time of ``calls`` back-to-back kernel calls."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Speedometer:
    """Samples ``reference_kernel`` on a timer while in a ``with`` block.

    One sample is also taken on entry and on exit, so that every stretch of
    the program's time inside the block is bounded by two samples.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []  # (start, end) of each kernel call
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        reference_kernel()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _gaps(self, start, end):
        """(seconds of program time, mean bounding kernel time) for each
        stretch between two samples, clipped to ``[start, end]``."""
        for before, after in zip(self.samples, self.samples[1:]):
            lo, hi = max(before[1], start), min(after[0], end)
            if hi > lo:
                yield hi - lo, ((before[1] - before[0]) + (after[1] - after[0])) / 2

    def scaled(self, start, end):
        """Reference seconds of the program's time between two
        ``time.perf_counter()`` readings taken inside the block."""
        return sum(gap * REFERENCE_S / kernel for gap, kernel in self._gaps(start, end))

    def raw(self, start, end):
        """Seconds of the program's time between the two readings, unscaled."""
        return sum(gap for gap, _ in self._gaps(start, end))
