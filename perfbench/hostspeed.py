"""Host speed reference for the benchmark's end-to-end timings.

The hosts the benchmark runs on change speed by up to 2x over seconds to
minutes, as other tenants load the cores and caches they share. A fixed
kernel of interpreter-bound work like the library's own (small frozen
dataclasses, closures, math calls, list comprehensions) slows down in step
with the library: over 150 s in which the kernel's time doubled at times,
its ratio to a batch of fiber ops or of allocate calls kept an interquartile
spread of 1.5 %. The benchmark therefore scales each op's time by
REFERENCE_S over the kernel's time measured around the op, and reports
seconds at reference speed. The kernel is benchmark code, so a change to
the library cannot move it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

# Kernel seconds at reference speed: its usual time on the x86_64 host with
# 2 vCPUs and Python 3.11.7 where the benchmark was defined.
REFERENCE_S = 3.6e-3

# Seconds between two measurements of the kernel, and repeats per measurement:
# about 7 % of a run's wall time goes to the kernel.
INTERVAL_S = 0.1
REPEATS = 2


@dataclass(frozen=True)
class _Point:
    a: float
    b: float


_FNS = (lambda x: x * x, lambda x: math.exp(-x), lambda x: math.sqrt(x + 1.0))


def kernel_seconds() -> float:
    """Best time of REPEATS runs of the kernel."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = perf_counter()
        acc = 0.0
        for i in range(3000):
            p = _Point(i * 0.001, 1.0 + i)
            v = [f(p.a) for f in _FNS]
            acc += math.hypot(v[0], v[1]) + v[2] - p.b * 1e-6
        best = min(best, perf_counter() - t0)
    return best


class HostSpeed:
    """Scale factor from this host's current speed to reference speed."""

    def __init__(self):
        self._measured_at = -math.inf
        self._factor = 1.0
        self.samples: list[float] = []

    def factor(self) -> float:
        """REFERENCE_S over the kernel's latest time, remeasured when stale."""
        if perf_counter() - self._measured_at >= INTERVAL_S:
            seconds = kernel_seconds()
            self.samples.append(seconds)
            self._factor = REFERENCE_S / seconds
            self._measured_at = perf_counter()
        return self._factor
