"""How fast the host ran during a run, from a fixed reference kernel.

On a shared host the same code runs 10–25% faster or slower from one minute
to the next, which swamps the regressions a gate should see. The benchmark
times :func:`kernel` — the same interpreter and small-array work every
time, none of it the library's — between consecutive queries, and reports
the end-to-end times scaled to the speed at which the kernel takes
:data:`REFERENCE_KERNEL_S`: ``reported = measured / slowdown``, where a
query's slowdown is the mean of the kernel runs around it over
``REFERENCE_KERNEL_S``. The values as measured are printed next to them.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: The kernel's median time on a 2-vCPU x86-64 VM, CPython 3.11, NumPy 2.4,
#: when the benchmark was defined.
REFERENCE_KERNEL_S = 0.027

_ARRAY = np.arange(2048)


def kernel() -> None:
    """A fixed mix of dict updates and small sorted-array intersections."""
    table: dict[int, int] = {}
    for i in range(40_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    for i in range(400):
        np.intersect1d(_ARRAY[i % 64 :], _ARRAY[:1536], assume_unique=True)


class HostSpeed:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time one kernel run, after a full collection, so the kernel does
        not pay for the previous query's garbage (and the next query starts
        from a collected heap)."""
        gc.collect()
        start = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    @property
    def slowdown(self) -> float:
        """Mean kernel time over the reference: above 1 means a slow host."""
        if not self.samples:
            return 1.0
        return sum(self.samples) / len(self.samples) / REFERENCE_KERNEL_S
