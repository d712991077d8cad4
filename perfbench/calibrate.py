"""A fixed pure-Python workload that measures how fast the host runs now.

The benchmark runs on shared machines whose speed drifts by tens of
percent within seconds (other tenants, frequency changes), far more than
the changes it must resolve.  A replay therefore runs the simulation in
slices and times a short calibration slice of this workload before the
first and after every simulation slice.  Each simulation slice's wall time
is scaled by the calibration slices around it to seconds of a reference
host::

    reported = measured * REFERENCE_S / mean(calibration before, after)

The workload uses only the standard library, never ``repro``, so a change
to the program cannot move it.  It exercises what the simulator's hot loop
does: a binary heap of tuples, dict updates, small slotted objects, method
calls and float arithmetic.
"""

from __future__ import annotations

import heapq
import time
from typing import List

#: Calibration slice time on the reference host (a quiet 2-core x86-64
#: container, Python 3.11).  Reported wall times are in seconds of that host.
REFERENCE_S = 0.005

#: Workload steps in one calibration slice.
_STEPS = 4000


class _Job:
    __slots__ = ("key", "size")

    def __init__(self, key: int, size: float) -> None:
        self.key = key
        self.size = size

    def cost(self, rate: float) -> float:
        return self.size / rate


def _workload(steps: int) -> float:
    heap: List = []
    totals = {}
    acc = 0.0
    for i in range(steps):
        job = _Job(i % 977, (i * 7919 % 1009) + 1.0)
        heapq.heappush(heap, (job.cost(3.5), i, job))
        if len(heap) > 256:
            _when, _i, done = heapq.heappop(heap)
            totals[done.key] = totals.get(done.key, 0.0) + done.size
            acc += done.cost(2.0)
    return acc + sum(totals.values())


def slice_s() -> float:
    """Wall seconds of one calibration slice."""
    start = time.perf_counter()
    _workload(_STEPS)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor turning wall seconds measured between two slices into
    reference-host seconds (1.0 on the reference host)."""
    return 2.0 * REFERENCE_S / (before + after)
