"""Timing scaled to a fixed machine speed.

Shared machines switch between speeds for seconds at a time: on a shared
2-core x86 Linux VM a fixed loop took 15 ms in some stretches and 27 ms in
others, each stretch lasting 5-20 s, so the median of a 40 s run of one
workload moved by about 20% from run to run.  Each operation is therefore
bracketed by a fixed reference loop whose code is the benchmark's own: a
small sampler in pure Python with scalar NumPy random draws, the same mix
the package runs.  The reported time is the measured time times
``NOMINAL_SECONDS`` over the mean of the two reference times around it: the
operation's duration on a machine on which the reference loop takes
``NOMINAL_SECONDS``.  Measured on that VM, fit, load, forecast, impute and
panel set-up each slowed by the same factor as the reference loop to within
6%.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_SECONDS = 0.02  # the reference loop's time on that VM at full speed


class _Cell:
    __slots__ = ("count", "total")

    def __init__(self):
        self.count = 0
        self.total = 0.0


def _score(cell: _Cell, x: float) -> float:
    n = cell.count + 1.0
    mean = (cell.total + x) / n
    return math.lgamma(0.5 * n + 1.0) - math.log1p((x - mean) ** 2 / n)


def reference_loop(iterations: int = 2000) -> float:
    """Fixed work: score cells, draw Gumbel noise, assign, as a Gibbs sweep does."""
    rng = np.random.default_rng(12345)
    cells = [_Cell() for _ in range(16)]
    acc = 0.0
    for i in range(iterations):
        x = ((i * 7919) % 1000) / 500.0 - 1.0
        k = 4 + i % 12
        scores = [_score(c, x) for c in cells[:k]]
        noise = rng.gumbel(size=k)
        best = max(range(k), key=lambda j: scores[j] + noise[j])
        cells[best].count += 1
        cells[best].total += x
        acc += scores[best] + rng.standard_t(5.0)
    return acc


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class Stopwatch:
    """Times calls in seconds at nominal machine speed.

    The reference time measured after one call serves as the one before the
    next, so each call costs one reference loop.
    """

    def __init__(self):
        self._before = reference_seconds()
        self.factors: list[float] = []  # measured / nominal speed, per timed call

    def time(self, fn, *args):
        """Returns (seconds at nominal speed, fn's output)."""
        start = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - start
        after = reference_seconds()
        factor = 0.5 * (self._before + after) / NOMINAL_SECONDS
        self._before = after
        self.factors.append(factor)
        return raw / factor, out
