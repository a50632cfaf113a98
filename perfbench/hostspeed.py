"""Taking the host's speed drift out of measured times.

The baseline machine (README.md) is a shared VM whose speed drifts by
20-40% over tens of seconds, on both vCPUs and whatever the code does.
A median over more passes only averages that drift.  So every timed
interval (the imports, each set-up, each pass) is paired with samples
of a fixed reference kernel taken just before it, just after it, and
every :data:`PROBE_EVERY_S` seconds of wall time inside it (a
``SIGALRM`` handler, while :meth:`HostSpeed.start` is in effect).  The
interval's time, less the time its samples took, divided by the mean
slowdown of those samples, is its time at the host's full speed.

The kernel calls nothing in ``repro`` and runs with the garbage
collector off, so neither the program's code nor the objects it holds
can move it: a program that gets faster lowers the scaled time by the
same share.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: Seconds :func:`reference_kernel` takes on the host the baseline was
#: measured on, at that host's full speed.
REFERENCE_S = 0.0025
#: Wall time between two samples inside a timed interval.
PROBE_EVERY_S = 0.1


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def scale(self, x):
        return self.a * x + self.b


_POINTS = [_Point(i, i & 7) for i in range(4000)]
_KEYS = [(i * 2654435761) & 0xFFFF for i in range(4000)]


def reference_kernel() -> int:
    """A fixed piece of pure-Python work of the kind the program does:
    attribute reads, method calls, dict stores, a sort of tuples."""
    table = {}
    rows = []
    for point, key in zip(_POINTS, _KEYS):
        table[key] = point.scale(3)
        rows.append((key, point.b))
    rows.sort()
    return len(table) + len(rows)


class HostSpeed:
    """Reference-kernel samples, and the time spent taking them."""

    def __init__(self) -> None:
        #: Slowdowns (kernel time over :data:`REFERENCE_S`), in order.
        self.samples: list = []
        #: Wall time spent in :meth:`probe` so far.
        self.spent = 0.0
        self._probing = False

    def probe(self, *_signal_args) -> None:
        """Take one sample (also the ``SIGALRM`` handler, which can fire
        inside a sample; that nested call is skipped)."""
        if self._probing:
            return
        self._probing = True
        started = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            reference_kernel()
        finally:
            if enabled:
                gc.enable()
        took = time.perf_counter() - started
        self.samples.append(took / REFERENCE_S)
        self.spent += time.perf_counter() - started
        self._probing = False

    def start(self) -> None:
        """Sample every :data:`PROBE_EVERY_S` until :meth:`stop`."""
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """Start a timed interval: a sample, then ``(samples, spent,
        clock)`` for :meth:`since`."""
        self.probe()
        return len(self.samples) - 1, self.spent, time.perf_counter()

    def since(self, mark):
        """End the interval :meth:`mark` began: ``(wall, scaled)``, its
        wall time less sampling, and that time at full speed."""
        first, spent, started = mark
        wall = time.perf_counter() - started - (self.spent - spent)
        self.probe()
        return wall, wall / statistics.fmean(self.samples[first:])
