"""Reference clock: the host's speed, sampled while the program runs.

On a shared host the speed of one core drifts by up to 1.8x, from one
second to the next (neighbours on the same physical core: CPU time drifts
with wall time, so it is not time stolen by the hypervisor).  A fixed piece
of stdlib work, run every PERIOD_S alongside the program and timed each
time, measures the speed of the moment.  Each stretch of the program's time
between two samples is divided by the reference time measured at its end,
and the sum is the program's time in reference calls (unit `ref`): the
drift cancels, and since the reference uses no treehopf code a change to
treehopf moves only the numerator.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.025
_ITEMS = tuple((Fraction(1 + k % 7, 2 + k % 5), (k % 13, k % 11)) for k in range(60))


def reference() -> Fraction:
    """A fixed mix of small-Fraction arithmetic, dict updates, tuples and a sort."""
    acc = Fraction(0)
    table = {}
    for q, key in _ITEMS:
        acc += q * q
        table[key] = table.get(key, 0) + q
    for key, value in sorted(table.items()):
        acc -= value * Fraction(key[0] + 1, key[1] + 1)
    return acc


def time_reference() -> float:
    """Seconds one reference() call takes now; the cyclic GC is held off, so
    that a collection of the program's heap is not charged to the host."""
    perf = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf()
        reference()
        return perf() - t
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Samples the reference every PERIOD_S of wall time from a SIGALRM
    handler, and sums the program's time in between in reference calls."""

    def __init__(self):
        self.refs = 0.0         # the program's time so far, in reference calls
        self.spent = 0.0        # wall time spent in the handler, to subtract
        self.samples = []       # every reference time, in seconds
        self._mark = None       # when the program last got the CPU back

    def _tick(self, _signum=None, _frame=None):
        t = time.perf_counter()
        r = time_reference()
        self.refs += (t - self._mark) / r
        self.samples.append(r)
        self._mark = time.perf_counter()
        self.spent += self._mark - t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop sampling; the last stretch is divided by one more sample."""
        if self._mark is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        self._mark = None
