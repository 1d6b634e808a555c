"""Reference clock: how fast the box runs while an in-process workload runs.

The benchmark shares its cores with other machines' work, and their load
changes how fast the same code runs by up to 1.8x, often for stretches
longer than a run.  So the in-process worker also times a fixed pure-Python
kernel, which does not touch the program, between its jobs, and its job
timings are scaled by NOMINAL_S over the kernel's median time in that run:
seconds on a box where the kernel takes NOMINAL_S.  Process start-up
(set-up probes, CLI children) is not scaled: the kernel follows only about
half of its drift.  The kernel's median and the unscaled metrics are
printed with every result.  Standard library only.
"""

from __future__ import annotations

import statistics
from time import perf_counter

NOMINAL_S = 0.001
# A sample is taken before a job when this long has passed since the last
# one, so the samples follow the box's speed through the run at a cost of
# about 3% of it.
EVERY_S = 0.05


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel: integer arithmetic, dict
    stores and a sort, about 1.4 ms on the 2-vCPU box."""
    start = perf_counter()
    acc = 0
    table = {}
    for i in range(8000):
        acc += (i * i) % 7
        table[i & 63] = acc
    sorted(table.values())
    return perf_counter() - start


class RefClock:
    """Kernel samples taken between jobs."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        """Takes a sample if EVERY_S has passed since the last one."""
        if perf_counter() - self._last >= EVERY_S:
            self.samples.append(kernel_seconds())
            self._last = perf_counter()


def scale(samples: list[float]) -> float:
    """The factor that turns this run's seconds into reference seconds."""
    return NOMINAL_S / statistics.median(samples)
