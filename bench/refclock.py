"""The reference clock every benchmark timing is read against.

On a small shared host the speed of pure-Python code drifts by 20-60% over
seconds (frequency changes and neighbours on the same cores), so ten-second
wall-clock averages of an unchanged program differ by up to a fifth between
runs.  The benchmark therefore runs a fixed pure-Python reference pass next
to the timed work and rescales each timed interval by

    NOMINAL_PASS_S / median(reference passes around the interval)

A rescaled time reads as "seconds on the reference host at its nominal
speed"; drift that slows the program and the reference pass alike cancels.

The pass and NOMINAL_PASS_S are part of the benchmark's definition: changing
either changes every rescaled figure, so they stay fixed once published.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Median pass time on the reference host (2 cores, Python 3.11.7).
NOMINAL_PASS_S = 0.0034

# Interval i lies between gaps i and i+1 and is rescaled by the median of the
# passes in the 2 * window gaps centred on it.  A library call of tens of
# milliseconds uses one pass per gap and two gaps on each side, which follows
# the fast swings of a shared host.  A process of about half a second uses
# three passes in each of the two gaps next to it: the parent only samples
# the host between processes, and a single short pass there is often hit by
# a neighbour.
INPROCESS_PASSES, INPROCESS_WINDOW = 1, 2
PROCESS_PASSES, PROCESS_WINDOW = 3, 1


def reference_pass() -> float:
    """One fixed pass over the interpreter paths the program lives on: an int
    loop, Fraction arithmetic, a bigint modular power and small tuple
    allocation.  Returns its wall time in seconds.

    The cyclic garbage collector is paused during the pass, so that its time
    depends on the speed of the host and not on the size of the caller's heap.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(9000):
            acc = (acc * 31 + i * i) % 1000003
        q = Fraction(0)
        for k in range(1, 90):
            q += Fraction(k, k * k + 1)
        acc ^= pow(0x5DEECE66D, 10**60 + 7, (1 << 1279) - 1) & 0xFFFF
        items = [(i, acc, q) for i in range(5000)]
        elapsed = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if len(items) != 5000:
        raise AssertionError("reference pass did not run")
    return elapsed


class RefClock:
    """Reference passes taken in the gaps between timed intervals.

    Call `tick()` once before the first interval and once after each one;
    interval i then lies between gaps i and i+1.
    """

    def __init__(self, passes_per_gap: int, window: int) -> None:
        self.passes_per_gap = passes_per_gap
        self.window = window
        self.gaps: list[list[float]] = []

    @property
    def passes(self) -> list[float]:
        return [t for gap in self.gaps for t in gap]

    def tick(self) -> None:
        self.gaps.append([reference_pass() for _ in range(self.passes_per_gap)])

    def factor(self, i: int) -> float:
        """Rescaling factor for interval i."""
        near = self.gaps[max(0, i + 1 - self.window): i + 1 + self.window]
        return NOMINAL_PASS_S / statistics.median(t for gap in near for t in gap)

    def summary(self) -> dict:
        passes = self.passes
        return {"nominal_ms": NOMINAL_PASS_S * 1e3,
                "count": len(passes),
                "median_ms": statistics.median(passes) * 1e3 if passes else None,
                "min_ms": min(passes) * 1e3 if passes else None,
                "max_ms": max(passes) * 1e3 if passes else None}
