"""The benchmark's three workloads, built from the public ``repro`` API.

Each workload is an open-loop replay in simulated time: arrivals come from
a seeded process on a fixed schedule, whatever the serving system does.
The seed only changes the generated inputs (arrival times, and for
``churn`` the MAF-like rate profile and the fault draws); the market, the
fleet bounds and the policies are fixed per workload.

* ``serve``  -- a pinned fleet on a calm three-zone market with a single
  preemption wave, under low-CV Gamma arrivals with short outputs at
  roughly 70% of the fleet's capacity: the per-request path.
* ``churn``  -- the chaos market and fault plan, repeated period after
  period, plus an offload tier and the cost-aware autoscaler: the control
  stack.
* ``ingest`` -- a pinned large fleet under arrivals far above capacity,
  with deadline-aware shedding: the queue and the arrival path.

``size`` scales a workload: simulated seconds for ``serve`` and
``ingest``, chaos periods for ``churn``.  The benchmark uses the defaults;
its tests pass small sizes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.cloud.pricing import PriceSchedule
from repro.cloud.trace import AvailabilityTrace, TraceEvent, TraceEventKind
from repro.cloud.zone import OutageWindow, ZoneSpec
from repro.experiments.scenarios import (
    MultiZoneScenario,
    chaos_fault_plan,
    chaos_market,
)
from repro.faults.injector import DegradedWindow, FaultPlan
from repro.sim.network import GB, OffloadTierSpec
from repro.workload.arrival import ArrivalProcess, GammaArrivals, TimeVaryingArrivals
from repro.workload.maf import synthesize_maf_profile

MODEL = "OPT-6.7B"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario, its arrivals and how to run it."""

    name: str
    scenario: MultiZoneScenario
    arrivals: ArrivalProcess
    #: Simulated seconds after the last arrival so in-flight work can drain.
    drain_time: float
    #: Whether the autoscaler may buy spot capacity beyond the traces.
    allow_spot_requests: bool


def _zone(
    name: str,
    initial: int,
    price: float,
    events: Tuple[TraceEvent, ...],
    duration: float,
) -> ZoneSpec:
    """A flat-priced zone whose capacity equals its pre-warmed fleet."""
    return ZoneSpec(
        name=name,
        trace=AvailabilityTrace(
            name=name, initial_instances=initial, events=list(events), duration=duration
        ),
        capacity=initial,
        spot_pricing=PriceSchedule.flat(price),
    )


def serve(seed: int, size: float = 14400.0) -> Workload:
    """Pinned 18-instance fleet, one preemption wave, ~70% offered load.

    13 req/s is about 70% of the ~18.5 req/s this fleet sustains with
    32-token outputs.  The wave delays well under 1% of the requests of a
    full-size run, so the p99 latency stays in steady serving instead of
    sitting on the edge of the wave's tail, where it would swing by seed.
    """
    duration = size
    wave = 0.5 * duration

    def wave_events(lost: int) -> Tuple[TraceEvent, ...]:
        return (TraceEvent(wave, TraceEventKind.PREEMPT, lost),)

    zones = (
        _zone("us-east-1a", 8, 1.5, wave_events(2), duration),
        _zone("us-east-1b", 6, 1.9, wave_events(1), duration),
        _zone("us-west-2a", 4, 2.6, (), duration),
    )
    scenario = MultiZoneScenario(
        model_name=MODEL,
        zones=zones,
        duration=duration,
        seed=seed,
        autoscale_policy=None,
        allow_on_demand=False,
        retain_completed_requests=False,
    )
    arrivals = GammaArrivals(rate=13.0, cv=1.0, seed=seed, output_tokens=32)
    return Workload("serve", scenario, arrivals, 300.0, False)


#: The chaos market's own length, in simulated seconds.
CHAOS_SPAN = 900.0

#: One ``churn`` period: the chaos market, then as long again without
#: preemptions, outages or degraded windows for the backlog to drain.
CHAOS_PERIOD = 2 * CHAOS_SPAN

#: Offload tier installed on ``churn``: degraded-window migrations that miss
#: the grace deadline spill their tail instead of falling back to reroute.
CHURN_TIER = OffloadTierSpec(
    spill_bandwidth=6.0 * GB,
    restore_bandwidth=12.0 * GB,
    per_spill_latency=0.05,
)


def _tile_zone(zone: ZoneSpec, periods: int) -> ZoneSpec:
    """Repeat one chaos period's trace, prices and outages *periods* times.

    The chaos traces lose instances over a period, so each period ends with
    an acquisition that gives the lost ones back and the next period starts
    from the same fleet.
    """
    offsets = [k * CHAOS_PERIOD for k in range(periods)]
    trace = zone.trace
    spot = zone.spot_pricing
    events = list(trace.events)
    lost = sum(
        event.count if event.kind is TraceEventKind.PREEMPT else -event.count
        for event in events
    )
    if lost > 0:
        events.append(TraceEvent(0.95 * CHAOS_SPAN, TraceEventKind.ACQUIRE, lost))
    return dataclasses.replace(
        zone,
        trace=AvailabilityTrace(
            name=trace.name,
            initial_instances=trace.initial_instances,
            events=[
                TraceEvent(event.time + offset, event.kind, event.count)
                for offset in offsets
                for event in events
            ],
            duration=CHAOS_PERIOD * periods,
        ),
        spot_pricing=PriceSchedule(
            base_price=spot.base_price,
            changes=tuple(
                (time + offset, price) for offset in offsets for time, price in spot.changes
            ),
        ),
        outages=tuple(
            OutageWindow(start=w.start + offset, duration=w.duration, warning=w.warning)
            for offset in offsets
            for w in zone.outages
        ),
    )


def _tile_plan(plan: FaultPlan, periods: int) -> FaultPlan:
    """Repeat one chaos period's degraded-bandwidth windows."""
    return dataclasses.replace(
        plan,
        degraded_windows=tuple(
            DegradedWindow(
                start=w.start + k * CHAOS_PERIOD,
                end=w.end + k * CHAOS_PERIOD,
                bandwidth_factor=w.bandwidth_factor,
            )
            for k in range(periods)
            for w in plan.degraded_windows
        ),
    )


def churn(seed: int, size: float = 5) -> Workload:
    """Chaos market + fault plan + offload tier + cost-aware autoscaler.

    A mean of 3 req/s keeps the faulted fleet near its capacity: about a
    sixth of the requests wait out an outage backlog.  The fault-free half
    of each period keeps that share well below one half, so the median
    latency stays in calm serving instead of on the edge of the backlog.
    """
    periods = int(size)
    duration = CHAOS_PERIOD * periods
    breakpoints = []
    for k in range(periods):
        profile = synthesize_maf_profile(
            duration=CHAOS_PERIOD, seed=seed * 1000 + k
        ).rescaled(3.0)
        breakpoints.extend((t + k * CHAOS_PERIOD, r) for t, r in profile.breakpoints)
    scenario = MultiZoneScenario(
        model_name=MODEL,
        zones=tuple(_tile_zone(zone, periods) for zone in chaos_market(CHAOS_SPAN)),
        duration=duration,
        seed=seed,
        autoscale_policy="cost-aware",
        min_instances=4,
        max_instances=36,
        cooldown=60.0,
        retain_completed_requests=False,
        fault_plan=_tile_plan(chaos_fault_plan(CHAOS_SPAN, seed=seed), periods),
        offload_tier=CHURN_TIER,
    )
    arrivals = TimeVaryingArrivals(breakpoints, cv=6.0, seed=seed)
    return Workload("churn", scenario, arrivals, 300.0, True)


def ingest(seed: int, size: float = 4800.0) -> Workload:
    """Pinned 18-instance fleet far past capacity, deadline-aware shedding.

    At 40 req/s with 128-token outputs the fleet serves about a fifth of
    the arrivals; the rest wait in a deep queue until the policy sheds them.
    """
    duration = size
    zones = (
        _zone("us-east-1a", 8, 1.5, (), duration),
        _zone("us-east-1b", 6, 1.9, (), duration),
        _zone("us-west-2a", 4, 2.6, (), duration),
    )
    scenario = MultiZoneScenario(
        model_name=MODEL,
        zones=zones,
        duration=duration,
        seed=seed,
        autoscale_policy=None,
        allow_on_demand=False,
        retain_completed_requests=False,
        admission="deadline-aware",
        admission_params=(("slo_latency", 60.0),),
    )
    arrivals = GammaArrivals(rate=40.0, cv=2.0, seed=seed)
    return Workload("ingest", scenario, arrivals, 120.0, False)


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "serve": serve,
    "churn": churn,
    "ingest": ingest,
}


def build(name: str, seed: int, size: Optional[float] = None) -> Workload:
    """Build workload *name* for *seed* (default size unless *size* is given)."""
    factory = WORKLOADS[name]
    return factory(seed) if size is None else factory(seed, size=size)
