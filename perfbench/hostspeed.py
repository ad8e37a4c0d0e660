"""Scale measured times to a reference host speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, for the same code and the same inputs.  To keep
that drift out of the end-to-end times, the timed pass runs a fixed
pure-Python routine (`reference`) between operations and records how
long it took.  An operation's time is multiplied by REFERENCE_S over the
reference times measured just before and just after it (their geometric
mean): that is its time on a host where the routine takes REFERENCE_S.

The routine is benchmark code and never calls the program, so a change
to the program moves scaled times exactly as much as raw ones.  The raw
times are still reported, in the `detail` line.
"""

from __future__ import annotations

import math
from array import array
from time import perf_counter

# Time of one `reference()` call on the machine the benchmark was tuned on
# (2-core Xeon virtual machine, Python 3.11.7) at its usual speed.
REFERENCE_S = 0.75e-3
CALIBRATE_REPEATS = 3  # a calibration is the fastest of this many calls

_MODULUS = 11**700


def reference() -> None:
    """The kinds of work the seshadri layers do, in about equal parts:
    small-integer and dict work, nested loops like the oracle walks, and
    big-integer products like the Pell solver's."""
    x, table = 1, {}
    for i in range(800):
        x = (x * 48271 + i) % 2147483647
        table[x & 255] = i
    n = 0
    for a in range(24):
        for b in range(a + 1):
            for c in range(b + 1):
                n += a * b - c
    y = 7**650
    for _ in range(15):
        y = y * y % _MODULUS


def measure() -> float:
    best = math.inf
    for _ in range(CALIBRATE_REPEATS):
        t0 = perf_counter()
        reference()
        best = min(best, perf_counter() - t0)
    return best


def factor(before: float, after: float) -> float:
    """Scale for a time taken between two calibrations."""
    return REFERENCE_S / math.sqrt(before * after)


class Clock:
    """Calibrations taken during a pass, at most `interval` seconds apart
    while operations run."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.refs = array("d")
        self.last = -math.inf

    def calibrate(self) -> int:
        """Measure the host now; returns the calibration's index."""
        self.refs.append(measure())
        self.last = perf_counter()
        return len(self.refs) - 1

    def before_op(self) -> int:
        """Calibrate if the last one is older than the interval; returns
        the index of the calibration that precedes the next operation."""
        if perf_counter() - self.last >= self.interval:
            return self.calibrate()
        return len(self.refs) - 1

    def factor(self, i: int) -> float:
        """Scale for a time taken between calibrations i and i + 1."""
        return factor(self.refs[i], self.refs[i + 1])

    def speed(self) -> float:
        """Median host speed over the pass, relative to the reference."""
        refs = sorted(self.refs)
        return REFERENCE_S / refs[len(refs) // 2]
