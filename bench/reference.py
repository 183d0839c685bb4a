"""A reference clock: the host's current speed, sampled between requests.

The shared host this benchmark is tuned on switches between a fast and a
slow speed (a fixed loop takes about 1.5 times longer in the slow spells),
in spells that last from a second to over a minute, so a whole run can fall
in either one. Every timed interval is therefore also reported at the
reference speed: the run samples a fixed loop of its own (numpy operations
on small and on d=64-sized matrices, the kind of work the library does) every
`INTERVAL` seconds, between requests, and an interval's length is scaled by
`REFERENCE_S` over the mean of the two samples around it. A change to the
library cannot change the loop, so a slower library reads slower at either
speed.

The loop's own time is left out of every interval that contains it.
"""
from __future__ import annotations

import bisect
import time

import numpy as np

INTERVAL = 0.25  # seconds of workload between two samples
REPEATS = 3  # a sample is the fastest of this many bursts
# One burst on the machine of the seed baseline (bench/README.md) in its
# fast spells; the scaled times read as that machine's fast-spell times.
REFERENCE_S = 4.0e-3

_SMALL = np.random.default_rng(0).standard_normal((24, 24))
_WIDE = np.random.default_rng(1).standard_normal((64, 64))


def burst() -> float:
    """The fixed loop: small matmuls and ufuncs, where the interpreter's
    overhead dominates, then d=64-sized ones, where BLAS does."""
    total = 0.0
    for _ in range(300):
        y = np.tanh((_SMALL @ _SMALL) * 0.01) + _SMALL
        total += float(y[0, 0])
    for _ in range(75):
        y = np.maximum(np.tanh((_WIDE @ _WIDE) * 0.01) + _WIDE, 0.0).sum(axis=0)
        total += float(y[0])
    return total


class Reference:
    """Samples of the burst time on the run's own timeline."""

    def __init__(self, clock=time.perf_counter, measure=None):
        self.clock = clock
        self.measure = measure or self._measure
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []  # fastest burst of each sample

    def _measure(self) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = self.clock()
            burst()
            best = min(best, self.clock() - t0)
        return best

    def sample(self) -> None:
        start = self.clock()
        seconds = self.measure()
        self.starts.append(start)
        self.ends.append(self.clock())
        self.seconds.append(seconds)

    def pace(self) -> None:
        """Sample if the last sample is at least INTERVAL seconds old."""
        if not self.ends or self.clock() - self.ends[-1] >= INTERVAL:
            self.sample()

    def factor(self, gap: int) -> float:
        """REFERENCE_S over the mean of the samples on either side of gap
        (gap g lies between sample g and sample g + 1)."""
        around = [self.seconds[i] for i in (gap, gap + 1) if 0 <= i < len(self.seconds)]
        return REFERENCE_S * len(around) / sum(around)

    def split(self, a: float, b: float) -> tuple[float, float]:
        """(wall seconds, reference seconds) of [a, b] outside the samples."""
        if not self.seconds:
            raise ValueError("no reference sample taken")
        wall = scaled = 0.0
        gap = bisect.bisect_right(self.starts, a) - 1
        while gap < len(self.starts):
            lo = max(a, self.ends[gap]) if gap >= 0 else a
            hi = min(b, self.starts[gap + 1]) if gap + 1 < len(self.starts) else b
            if hi > lo:
                wall += hi - lo
                scaled += (hi - lo) * self.factor(gap)
            gap += 1
            if gap < len(self.starts) and self.starts[gap] >= b:
                break
        return wall, scaled
