"""Host-speed sampler: scales measured times to a reference speed.

On a shared host the speed of one core changes by up to a factor of
two, often within tens of milliseconds, while the process keeps its
core (its CPU time tracks its wall time).  So while the benchmark
measures, a SIGALRM handler times a small fixed pure-Python kernel
every INTERVAL_S seconds: a product construction of two automata over
tuple states, the kind of work the library does.  An operation's time,
minus the time the handler took during it, is scaled by REF_KERNEL_S
over the mean kernel time sampled while it ran (for a span shorter than
two intervals, the samples just before and after it).  The mean, not
the median, because an operation's time is the sum over the fast and
slow phases it spans.  A scaled time reads as the time the operation
takes on a host where the kernel takes REF_KERNEL_S.

The handler runs only while the sampler is started, so a traced run
(spans.py) never counts it into a library function.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

INTERVAL_S = 0.02
# About the kernel's time in the fast phase of the 2-core virtual
# machine the baseline was measured on; scaled times read as that
# host's at full speed.
REF_KERNEL_S = 0.0003

_D1 = {(q, a): ((q * 3 + a) % 11, (q + a + 1) % 11)
       for q in range(11) for a in range(3)}
_D2 = {(q, a): ((q * 5 + 2 * a + 1) % 7,) for q in range(7) for a in range(3)}


def _successors(p, a):
    q1, q2 = p
    return [(r1, r2) for r1 in _D1[q1, a] for r2 in _D2[q2, a]]


def kernel():
    """Explore the product of _D1 and _D2 from (0, 0); returns the
    number of reachable states and of distinct state sets seen."""
    start = (0, 0)
    parent = {start: None}
    todo = [start]
    labels = []
    while todo:
        p = todo.pop()
        for a in range(3):
            for r in _successors(p, a):
                if r not in parent:
                    parent[r] = (p, a)
                    todo.append(r)
        labels.append(frozenset(p))
    return len(parent), len(set(labels))


class Sampler:
    """Kernel times sampled from a SIGALRM handler while started."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.busy = 0.0  # total time spent in the handler
        self._previous = None

    def start(self):
        self.at = array("d")
        self.took = array("d")
        self.busy = 0.0
        kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.busy += time.perf_counter() - t0

    def mark(self):
        return time.perf_counter(), self.busy

    def scaled(self, m0, m1):
        """Seconds between two marks, less the handler's time, at the
        reference speed; unscaled if no kernel time was sampled."""
        (t0, busy0), (t1, busy1) = m0, m1
        own = (t1 - t0) - (busy1 - busy0)
        if not self.at:
            return own
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_right(self.at, t1)
        if j - i < 2:  # a short span: the samples just before and after
            i, j = max(0, i - 1), min(len(self.at), j + 1)
        return own * REF_KERNEL_S / statistics.fmean(self.took[i:j])


SAMPLER = Sampler()
