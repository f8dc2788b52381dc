"""A fixed piece of work, unrelated to abwkb, that tracks machine speed.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts
by up to 1.5x within seconds to minutes.  Wall times of the same op in
two runs differ by that much, whatever the estimator.  The yardstick is
a fixed mix of the three kinds of work abwkb does (a scalar float loop
like the Numerov sweeps and Bessel series, small NumPy array expressions
like the action quadrature, float formatting and JSON like the CLI).
The timed stream runs it between ops every YARDSTICK_EVERY_S seconds
and divides each op's time by the median of the passes nearest to it,
so an op's cost is given in yardstick passes ("ref") timed next to it.

It imports nothing from abwkb, so a change to the program does not
move it.
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
import time

import numpy as np

# a pass takes ~1.2 ms on a 2-vCPU x86-64 VM (Python 3.11, NumPy 2.4);
# every 25 ms that is ~5% of the stream
YARDSTICK_EVERY_S = 0.025
# an op is divided by the median of this many passes on either side of it
NEIGHBOURS = 3

_T = np.linspace(-3.0, 3.0, 129)
_VALUES = [math.pi * i / 7 for i in range(1, 61)]


def _scalar_loop() -> float:
    acc, u0, u1 = 0.0, 1e-3, 1.1e-3
    for i in range(1, 700):
        r = 0.5 + i * 1e-3
        g = 1.3 - r**1.7 - 0.25 / (r * r)
        u0, u1 = u1, (2.0 * u1 * (1.0 - 5e-4 * g) - u0) / (1.0 + 1e-4 * g)
        if abs(u1) > 1e250:
            u1 *= 1e-250
        acc += u1
    return acc


def _small_arrays() -> float:
    s = 0.0
    for _ in range(12):
        u = 0.5 * np.pi * np.sinh(_T)
        s += float(np.sum(np.where(u > -5.0, np.cosh(_T) * np.sqrt(np.abs(u)), 0.0)))
    return s


def _formatting() -> int:
    rows = [{"n": i, "e": v * 1.000001, "g": v / 3} for i, v in enumerate(_VALUES)]
    text = "\n".join(",".join(f"{x:.12g}" for x in (v, v * v, v / 7)) for v in _VALUES)
    return len(json.dumps(rows, indent=2)) + len(text)


def one_pass() -> float:
    """Wall seconds of one pass of the yardstick."""
    start = time.perf_counter()
    _scalar_loop()
    _small_arrays()
    _formatting()
    return time.perf_counter() - start


class Marks:
    """Yardstick passes taken during a stream, with their start times."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def take(self) -> None:
        self.at.append(time.perf_counter())
        self.seconds.append(one_pass())

    def due(self, now: float) -> bool:
        return not self.at or now - self.at[-1] >= YARDSTICK_EVERY_S

    def local(self, when: float) -> float:
        """Median of the NEIGHBOURS passes before and after time `when`."""
        i = bisect.bisect(self.at, when)
        return statistics.median(self.seconds[max(0, i - NEIGHBOURS):i + NEIGHBOURS])
