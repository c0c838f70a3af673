"""Scaling of measured times to a fixed reference speed.

On a shared 2-vCPU host the same pure-Python work runs up to 40% slower in
one stretch of a few seconds than in the next, and one 30 s run can average
30% slower than another; CPU time moves with wall time, so the loss is
speed, not steal.  Timed loops therefore run a fixed stdlib kernel every
``EVERY_S`` seconds between ops, and each measured time is multiplied by
``NOMINAL_NS`` / (median kernel time within ``WINDOW_S`` of the measured
interval).  A result is then in milliseconds at the speed where the kernel
takes 3 ms (about its time on that host), and a slow stretch of the host
no longer reads as a slower treespan.  The kernel touches only the
standard library, so no change to treespan can move it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

from tracing import NullTracer

NOMINAL_NS = 3_000_000
EVERY_S = 0.25
WINDOW_S = 1.5


def kernel_ns() -> int:
    """Time of one run of the reference kernel: Fraction arithmetic,
    big-int bit operations, tuple-set inserts and a small-int loop, the
    interpreter paths that geometry, compat and trees spend their time on.
    In the host's fast stretches the kernel still speeds up more than
    compat and transforms code does; the small-int loop narrows that gap a
    little (README.md)."""
    t0 = time.perf_counter_ns()
    third, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, 120):
        acc += third * Fraction(i, i + 1) - Fraction(1, i + 2)
    ones, bits = (1 << 3000) - 1, 0
    for i in range(400):
        bits ^= (ones >> (i % 97)) & (ones << (i % 31))
    seen = set()
    for i in range(3000):
        seen.add((i % 37, i % 11, i % 5))
    x = 0
    for i in range(10000):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter_ns() - t0


class Gauge:
    """Kernel samples taken through a run, and the scale they imply."""

    def __init__(self) -> None:
        self.at: list = []       # perf_counter seconds of each sample
        self.ns: list = []
        self._next = 0.0

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self.ns.append(kernel_ns())

    def sample_due(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self.sample()
            self._next = now + EVERY_S

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_NS over the median kernel time near [start, end].  No
        samples fall inside an op, so a long op looks as far to each side
        as it lasted."""
        reach = max(WINDOW_S, end - start)
        lo = bisect.bisect_left(self.at, start - reach)
        hi = bisect.bisect_right(self.at, end + reach)
        near = self.ns[lo:hi] or [self.ns[min(lo, len(self.ns) - 1)]]
        return NOMINAL_NS / statistics.median(near)

    def span(self, start: float, end: float) -> tuple:
        """(raw, scaled) seconds of [start, end] outside the kernel samples
        taken in it; each stretch between two samples is scaled by its own
        factor, as an op is."""
        raw = scaled = 0.0
        t = start
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        for at, ns in zip(self.at[lo:hi], self.ns[lo:hi]):
            raw += at - t
            scaled += (at - t) * self.factor(t, at)
            t = at + ns / 1e9
        return raw + end - t, scaled + (end - t) * self.factor(t, end)


class Sampled(NullTracer):
    """Untraced layer calls that give the gauge its due samples between
    them, so that a set-up, one call to a workload, is scaled in stretches
    like the ops."""

    def __init__(self, gauge: Gauge) -> None:
        self.gauge = gauge

    def call(self, name, fn, *args, units: int = 1, **kw):
        self.gauge.sample_due()
        return fn(*args, **kw)
