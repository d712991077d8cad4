"""Spot-instance availability traces.

The paper extracts two representative 20-minute segments, ``AS`` and ``BS``,
from a 12-hour availability trace collected on AWS ``g4dn`` spot instances
(Figure 5), and derives ``AS+O`` / ``BS+O`` variants by letting Algorithm 1
mix in on-demand instances.  The raw AWS trace is not published, so this
module ships hand-authored trace definitions that match the figure's shape
(initial fleet size, preemption clusters, re-acquisitions).

A trace is a list of :class:`TraceEvent` items; each event adds or removes a
number of spot instances at a timestamp.  Traces only describe the *spot*
market -- on-demand instances are allocated at runtime by the instance
manager when mixing is enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Tuple


class TraceEventKind(Enum):
    """Whether the cloud grants or reclaims spot instances."""

    ACQUIRE = "acquire"
    PREEMPT = "preempt"


@dataclass(frozen=True)
class TraceEvent:
    """A change in spot-instance availability at a point in time."""

    time: float
    kind: TraceEventKind
    count: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError(f"trace events need a finite time >= 0, got {self.time}")
        if self.count <= 0:
            raise ValueError("trace events must change at least one instance")

    @property
    def delta(self) -> int:
        """Signed change in instance count."""
        return self.count if self.kind is TraceEventKind.ACQUIRE else -self.count


@dataclass
class AvailabilityTrace:
    """A named spot availability trace.

    Attributes
    ----------
    name:
        Trace identifier, e.g. ``"AS"``.
    initial_instances:
        Spot instances available at time zero.
    events:
        Availability changes, sorted by time.
    duration:
        Total trace length in seconds (the paper replays 20-minute segments).
    """

    name: str
    initial_instances: int
    events: List[TraceEvent] = field(default_factory=list)
    duration: float = 1200.0

    def __post_init__(self) -> None:
        if self.initial_instances < 0:
            raise ValueError("initial_instances must be non-negative")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"duration must be finite and positive, got {self.duration}")
        self.events = sorted(self.events, key=lambda event: event.time)
        counts = self.instance_counts()
        if any(count < 0 for _, count in counts):
            raise ValueError(f"trace {self.name} drives instance count negative")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def instance_counts(self) -> List[Tuple[float, int]]:
        """Step series of ``(time, available spot instances)``."""
        series = [(0.0, self.initial_instances)]
        count = self.initial_instances
        for event in self.events:
            count += event.delta
            series.append((event.time, count))
        return series

    def instances_at(self, time: float) -> int:
        """Spot instances available at *time*."""
        count = self.initial_instances
        for event in self.events:
            if event.time > time:
                break
            count += event.delta
        return count


# ----------------------------------------------------------------------
# Built-in traces matching Figure 5's shape
# ----------------------------------------------------------------------
def trace_as(duration: float = 1200.0) -> AvailabilityTrace:
    """Trace ``AS``: a moderately dynamic segment.

    Starts with a full fleet of 12 spot instances, loses a couple of
    instances in the first half, recovers some capacity, and ends with a
    late preemption -- the "gentler" of the two segments in Figure 5.
    """
    events = [
        TraceEvent(180.0, TraceEventKind.PREEMPT, 1),
        TraceEvent(300.0, TraceEventKind.PREEMPT, 2),
        TraceEvent(520.0, TraceEventKind.ACQUIRE, 1),
        TraceEvent(660.0, TraceEventKind.ACQUIRE, 1),
        TraceEvent(780.0, TraceEventKind.PREEMPT, 1),
        TraceEvent(900.0, TraceEventKind.ACQUIRE, 2),
        TraceEvent(1080.0, TraceEventKind.PREEMPT, 1),
    ]
    return AvailabilityTrace("AS", initial_instances=12, events=events, duration=duration)


def trace_bs(duration: float = 1200.0) -> AvailabilityTrace:
    """Trace ``BS``: a volatile segment with clustered preemptions.

    Loses a third of the fleet in a tight burst early on, dips to its minimum
    mid-trace, and churns repeatedly -- the "harsher" segment of Figure 5
    where tail latencies blow up for the baselines.
    """
    events = [
        TraceEvent(150.0, TraceEventKind.PREEMPT, 2),
        TraceEvent(210.0, TraceEventKind.PREEMPT, 2),
        TraceEvent(360.0, TraceEventKind.ACQUIRE, 1),
        TraceEvent(480.0, TraceEventKind.PREEMPT, 3),
        TraceEvent(620.0, TraceEventKind.ACQUIRE, 2),
        TraceEvent(760.0, TraceEventKind.PREEMPT, 2),
        TraceEvent(880.0, TraceEventKind.ACQUIRE, 2),
        TraceEvent(1000.0, TraceEventKind.ACQUIRE, 1),
        TraceEvent(1100.0, TraceEventKind.PREEMPT, 1),
    ]
    return AvailabilityTrace("BS", initial_instances=12, events=events, duration=duration)


def trace_a_prime(duration: float = 1080.0) -> AvailabilityTrace:
    """Trace ``A'S``: segment used for the fluctuating-workload study (Fig. 8c)."""
    events = [
        TraceEvent(120.0, TraceEventKind.PREEMPT, 1),
        TraceEvent(240.0, TraceEventKind.PREEMPT, 1),
        TraceEvent(420.0, TraceEventKind.ACQUIRE, 1),
        TraceEvent(600.0, TraceEventKind.PREEMPT, 2),
        TraceEvent(780.0, TraceEventKind.ACQUIRE, 2),
        TraceEvent(960.0, TraceEventKind.PREEMPT, 1),
    ]
    return AvailabilityTrace("A'S", initial_instances=10, events=events, duration=duration)


def trace_b_prime(duration: float = 1080.0) -> AvailabilityTrace:
    """Trace ``B'S``: harsher segment for the fluctuating-workload study (Fig. 8d)."""
    events = [
        TraceEvent(120.0, TraceEventKind.PREEMPT, 1),
        TraceEvent(240.0, TraceEventKind.PREEMPT, 1),
        TraceEvent(300.0, TraceEventKind.PREEMPT, 2),
        TraceEvent(450.0, TraceEventKind.ACQUIRE, 2),
        TraceEvent(600.0, TraceEventKind.PREEMPT, 2),
        TraceEvent(750.0, TraceEventKind.ACQUIRE, 2),
        TraceEvent(900.0, TraceEventKind.PREEMPT, 1),
        TraceEvent(1000.0, TraceEventKind.ACQUIRE, 1),
    ]
    return AvailabilityTrace("B'S", initial_instances=10, events=events, duration=duration)


BUILTIN_TRACES = {
    "AS": trace_as,
    "BS": trace_bs,
    "A'S": trace_a_prime,
    "B'S": trace_b_prime,
}


def get_trace(name: str) -> AvailabilityTrace:
    """Return a built-in trace by name (case-insensitive, exact match first)."""
    key = name.upper().replace(" ", "")
    for candidate, factory in BUILTIN_TRACES.items():
        if candidate.upper().replace(" ", "") == key:
            return factory()
    for candidate, factory in BUILTIN_TRACES.items():
        if candidate.upper().replace("'", "").replace(" ", "") == key.replace("'", ""):
            return factory()
    raise KeyError(f"unknown trace {name!r}; available: {sorted(BUILTIN_TRACES)}")
