"""Simulated preemptible cloud provider.

:class:`CloudProvider` replays :class:`~repro.cloud.trace.AvailabilityTrace`
events on top of the discrete-event simulator and exposes exactly the
interface the paper's instance manager consumes:

* it grants the initial spot fleet at time zero,
* trace ``ACQUIRE`` events deliver additional spot instances,
* trace ``PREEMPT`` events pick victims among the held spot instances, emit a
  *preemption notice* (:class:`~repro.sim.events.EventType.PREEMPTION_NOTICE`),
  and reclaim the instance after the grace period
  (:class:`~repro.sim.events.EventType.PREEMPTION_FINAL`),
* the serving system can additionally request **on-demand** instances, which
  always succeed (up to the zone's capacity) and become ready after the
  instance type's startup delay,
* released or preempted instances stop accruing cost in the
  :class:`~repro.cloud.pricing.CostTracker`,
* zones may carry scheduled :class:`~repro.cloud.zone.OutageWindow` periods:
  the provider announces each outage with ``ZONE_OUTAGE`` events (an optional
  ``"warning"`` phase that also issues per-instance preemption notices, a
  ``"down"`` phase that reclaims **every** instance in the zone atomically --
  spot, on-demand and still-launching alike -- and a ``"restored"`` phase when
  the window ends), and the zone's capacity reads as zero for the whole
  window, so neither trace grants nor allocation requests can land in a dark
  zone.

An optional :class:`~repro.faults.FaultInjector` makes the cloud *unreliable*
in the ways real clouds are: allocation requests can be refused with
insufficient-capacity errors, launches can straggle (stretched startup delay)
or die mid-flight (``LAUNCH_FAILURE``), and spot reclaims can land earlier
than the announced grace deadline.  Every injector hook is skipped when no
injector is installed, keeping the default path byte-identical.

The provider manages one or more **availability zones**
(:class:`~repro.cloud.zone.ZoneSpec`): each zone replays its own trace with
its own deterministic victim RNG, enforces its own capacity limit and bills
at its own (possibly time-varying) price schedule.  The legacy single-trace
constructor wraps the trace into one ``"default"`` zone and behaves exactly
like the seed implementation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..faults.injector import FaultInjector
from ..sim.engine import Simulator
from ..sim.events import Event, EventType
from ..sim.rng import derive_seed
from .instance import DEFAULT_ZONE, G4DN_12XLARGE, Instance, InstanceState, InstanceType, Market
from .pricing import CostTracker
from .trace import AvailabilityTrace, TraceEventKind
from .zone import ZoneSpec, single_zone, validate_zones


class CloudProvider:
    """Replays per-zone spot availability traces and serves allocation requests."""

    def __init__(
        self,
        simulator: Simulator,
        trace: Optional[AvailabilityTrace] = None,
        instance_type: InstanceType = G4DN_12XLARGE,
        allow_spot_requests: bool = False,
        trace_market: Market = Market.SPOT,
        victim_seed: int = 0,
        zones: Optional[Sequence[ZoneSpec]] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if zones is None:
            if trace is None:
                raise ValueError("either a trace or explicit zones must be provided")
            zones = single_zone(trace)
        elif trace is not None:
            raise ValueError("pass either a bare trace or explicit zones, not both")
        self.simulator = simulator
        self.zones: Dict[str, ZoneSpec] = {z.name: z for z in validate_zones(zones)}
        self.instance_type = instance_type
        self.cost_tracker = CostTracker()
        self.allow_spot_requests = allow_spot_requests
        self.trace_market = trace_market
        #: Optional cloud-fault injector (see :mod:`repro.faults`).  When
        #: None (the default) every fault hook below is skipped entirely and
        #: the provider behaves byte-identically to the fault-free code.
        self.fault_injector = fault_injector
        # Single-zone replays keep the seed's RNG stream byte-for-byte; with
        # several zones each gets an independent derived stream so adding a
        # zone never perturbs another zone's victim picks.
        if len(self.zones) == 1:
            seeds = {name: victim_seed for name in self.zones}
        else:
            seeds = {name: derive_seed(victim_seed, name) for name in self.zones}
        self._victim_rngs = {
            name: np.random.default_rng(seed) for name, seed in seeds.items()
        }
        #: Every instance ever granted, in grant order (:meth:`zone_of`).
        self._instances: Dict[str, Instance] = {}
        #: The granted instances not yet preempted, failed or released, in
        #: grant order: the fleet views walk this instead of every instance
        #: ever granted.  The provider drops an instance when it kills it;
        #: :meth:`alive_instances` drops one killed outside the provider.
        self._alive: Dict[str, Instance] = {}
        #: Pending ``ACQUISITION_READY`` events per launching instance, so a
        #: zone outage can cancel the ready announcement of an instance that
        #: died before finishing its startup delay.
        self._pending_ready: Dict[str, Event] = {}
        for zone in self.zones.values():
            self._schedule_trace(zone)
            self._schedule_outages(zone)

    @property
    def zone_names(self) -> List[str]:
        """Names of every managed zone, in declaration order."""
        return list(self.zones)

    def zone_of(self, instance_id: str) -> str:
        """Availability zone of *instance_id* (``"default"`` when unknown)."""
        instance = self._instances.get(instance_id)
        return instance.zone if instance is not None else DEFAULT_ZONE

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------
    def _schedule_trace(self, zone: ZoneSpec) -> None:
        for _ in range(zone.trace.initial_instances):
            self._grant_spot_instance(0.0, zone, ready_immediately=True, announce=False)
        for event in zone.trace.events:
            if event.kind is TraceEventKind.ACQUIRE:
                self.simulator.schedule_at(
                    event.time,
                    EventType.GENERIC,
                    payload={
                        "provider_action": "trace_acquire",
                        "count": event.count,
                        "zone": zone.name,
                    },
                    callback=self._on_trace_acquire,
                )
            else:
                self.simulator.schedule_at(
                    event.time,
                    EventType.GENERIC,
                    payload={
                        "provider_action": "trace_preempt",
                        "count": event.count,
                        "zone": zone.name,
                    },
                    callback=self._on_trace_preempt,
                )

    def _on_trace_acquire(self, event: Event) -> None:
        zone = self.zones[event.payload["zone"]]
        count = min(event.payload["count"], self.capacity_remaining(zone.name))
        for _ in range(count):
            self._grant_spot_instance(event.time, zone, ready_immediately=True)

    def _on_trace_preempt(self, event: Event) -> None:
        zone_name = event.payload["zone"]
        victims = self._select_preemption_victims(event.payload["count"], zone_name)
        for victim in victims:
            self._issue_preemption_notice(victim, event.time)

    # ------------------------------------------------------------------
    # Zone outages
    # ------------------------------------------------------------------
    def _schedule_outages(self, zone: ZoneSpec) -> None:
        """Schedule the ZONE_OUTAGE event phases for every outage window."""
        for outage in zone.outages:
            base_payload = {
                "zone": zone.name,
                "start": outage.start,
                "end": outage.end,
                "warning": outage.warning,
            }
            if outage.warning > 0 and outage.notice_time < outage.start:
                self.simulator.schedule_at(
                    outage.notice_time,
                    EventType.ZONE_OUTAGE,
                    payload={**base_payload, "phase": "warning"},
                    callback=self._on_zone_outage_warning,
                )
            self.simulator.schedule_at(
                outage.start,
                EventType.ZONE_OUTAGE,
                payload={**base_payload, "phase": "down"},
                callback=self._on_zone_outage_down,
            )
            self.simulator.schedule_at(
                outage.end,
                EventType.ZONE_OUTAGE,
                payload={**base_payload, "phase": "restored"},
            )

    def _on_zone_outage_warning(self, event: Event) -> None:
        """Announce an upcoming outage: grace every spot instance in the zone.

        Running spot instances get regular preemption notices whose reclaim
        deadline is the *outage start* (not the per-instance grace period),
        so the existing JIT interruption machinery budgets the evacuation
        against the real deadline.  On-demand, launching and already-graced
        instances get no (second) notice -- they die at the ``"down"`` phase
        -- but the ZONE_OUTAGE event itself tells the serving system the
        whole zone is doomed.
        """
        zone_name = event.payload["zone"]
        deadline = event.payload["start"]
        victims = [
            instance
            for instance in self.alive_instances()
            if instance.zone == zone_name
            and instance.market is Market.SPOT
            and instance.state is InstanceState.RUNNING
        ]
        victims.sort(key=lambda inst: inst.instance_id)
        for victim in victims:
            self._issue_preemption_notice(victim, event.time, deadline=deadline)

    def _on_zone_outage_down(self, event: Event) -> None:
        """The zone goes dark: reclaim every instance in it atomically."""
        zone_name = event.payload["zone"]
        victims = [
            instance for instance in self.alive_instances() if instance.zone == zone_name
        ]
        victims.sort(key=lambda inst: inst.instance_id)
        for victim in victims:
            pending_ready = self._pending_ready.pop(victim.instance_id, None)
            if pending_ready is not None:
                pending_ready.cancel()
            self._alive.pop(victim.instance_id, None)
            victim.fail(event.time)
            self.cost_tracker.stop_billing(victim, event.time)
        # Handlers dispatched after this callback see exactly who died.
        event.payload["failed_instances"] = victims

    # ------------------------------------------------------------------
    # Spot lifecycle
    # ------------------------------------------------------------------
    def _grant_spot_instance(
        self,
        time: float,
        zone: ZoneSpec,
        ready_immediately: bool,
        announce: bool = True,
    ) -> Instance:
        instance = Instance(
            instance_type=self.instance_type,
            market=self.trace_market,
            launch_time=time,
            zone=zone.name,
        )
        self._instances[instance.instance_id] = instance
        self._alive[instance.instance_id] = instance
        schedule = (
            zone.spot_schedule(self.instance_type)
            if self.trace_market is Market.SPOT
            else zone.on_demand_schedule(self.instance_type)
        )
        self.cost_tracker.start_billing(instance, time, schedule)
        if ready_immediately:
            instance.mark_ready(time)
            if announce:
                self.simulator.schedule_at(
                    time,
                    EventType.ACQUISITION_READY,
                    payload={"instance": instance},
                )
        else:
            self._schedule_ready(instance, time + self.instance_type.startup_delay)
        return instance

    def _schedule_ready(self, instance: Instance, ready_at: float) -> None:
        """Announce *instance* as usable at *ready_at* (cancellable).

        The pending event is tracked so that a zone outage striking during
        the startup delay can cancel the announcement instead of marking a
        dead instance ready.  With a fault injector installed, the startup
        delay may be stretched by a seeded straggler multiplier and the
        launch may die mid-flight (a ``LAUNCH_FAILURE`` event that cancels
        the ready announcement).
        """
        if self.fault_injector is not None:
            now = self.simulator.now
            multiplier = self.fault_injector.launch_delay_multiplier(instance.zone)
            if multiplier != 1.0:
                ready_at = now + (ready_at - now) * multiplier
            failure_at = self.fault_injector.launch_failure_at(
                instance.zone, now, ready_at
            )
            if failure_at is not None:
                self.simulator.schedule_at(
                    failure_at,
                    EventType.LAUNCH_FAILURE,
                    payload={"instance": instance},
                    callback=self._on_launch_failure,
                )
        event = self.simulator.schedule_at(
            ready_at,
            EventType.ACQUISITION_READY,
            payload={"instance": instance},
            callback=self._on_instance_ready,
        )
        self._pending_ready[instance.instance_id] = event

    def _on_instance_ready(self, event: Event) -> None:
        instance: Instance = event.payload["instance"]
        self._pending_ready.pop(instance.instance_id, None)
        instance.mark_ready(event.time)

    def _on_launch_failure(self, event: Event) -> None:
        """A launching instance died before becoming ready.

        No-ops unless the instance is still ``LAUNCHING`` (a zone outage or
        preemption may have reclaimed it first).  Sets ``applied`` in the
        event payload so downstream handlers (the server's retry machinery)
        know whether the failure actually took effect.
        """
        instance: Instance = event.payload["instance"]
        event.payload["applied"] = False
        if not instance.is_alive or instance.state is not InstanceState.LAUNCHING:
            return
        pending_ready = self._pending_ready.pop(instance.instance_id, None)
        if pending_ready is not None:
            pending_ready.cancel()
        self._alive.pop(instance.instance_id, None)
        instance.fail(event.time)
        self.cost_tracker.stop_billing(instance, event.time)
        event.payload["applied"] = True

    def _select_preemption_victims(self, count: int, zone_name: str) -> List[Instance]:
        """Pick spot instances of *zone_name* to reclaim, uniformly at random.

        The cloud has no knowledge of (and no sympathy for) the tenant's
        pipeline placement, so victims land anywhere in the zone's fleet --
        this is what causes the "chain crashing" effect described in Section
        2.2.  Each zone's RNG is seeded, so replays stay deterministic.
        """
        candidates = [
            instance
            for instance in self.alive_instances()
            if instance.market is Market.SPOT and instance.zone == zone_name
        ]
        candidates.sort(key=lambda inst: inst.instance_id)
        if not candidates:
            return []
        count = min(count, len(candidates))
        rng = self._victim_rngs[zone_name]
        chosen = rng.choice(len(candidates), size=count, replace=False)
        return [candidates[index] for index in sorted(chosen)]

    def _issue_preemption_notice(
        self, instance: Instance, time: float, deadline: Optional[float] = None
    ) -> None:
        """Notify and schedule the reclaim of *instance*.

        ``deadline`` overrides the per-instance grace deadline (a zone-outage
        warning graces the whole zone until the outage start instead).

        With a fault injector installed the reclaim may land *before* the
        announced deadline (the Section 4.2 "earlier than expected" case):
        the notice still advertises the full deadline -- that is the whole
        point -- but the ``PREEMPTION_FINAL`` fires at the seeded early
        reclaim time.
        """
        pending_ready = self._pending_ready.pop(instance.instance_id, None)
        if pending_ready is not None:
            # A still-launching victim will never finish booting: cancel its
            # ready announcement or it would fire after the reclaim and try
            # to mark a graced/preempted instance ready.
            pending_ready.cancel()
        grace_deadline = instance.notify_preemption(time)
        if deadline is None:
            deadline = grace_deadline
        self.simulator.schedule_at(
            time,
            EventType.PREEMPTION_NOTICE,
            payload={"instance": instance, "deadline": deadline},
        )
        reclaim_at = deadline
        if self.fault_injector is not None:
            early = self.fault_injector.early_reclaim_time(
                instance.zone, time, deadline
            )
            if early is not None:
                reclaim_at = early
        self.simulator.schedule_at(
            reclaim_at,
            EventType.PREEMPTION_FINAL,
            payload={"instance": instance},
            callback=self._finalize_preemption,
        )

    def _finalize_preemption(self, event: Event) -> None:
        instance: Instance = event.payload["instance"]
        if not instance.is_alive:
            return
        self._alive.pop(instance.instance_id, None)
        instance.preempt(event.time)
        self.cost_tracker.stop_billing(instance, event.time)

    # ------------------------------------------------------------------
    # Allocation API (used by the instance manager / autoscaler)
    # ------------------------------------------------------------------
    def _allocation_zones(
        self, zone: Optional[str], avoid_zones: Optional[Sequence[str]] = None
    ) -> List[ZoneSpec]:
        """Zones to satisfy an allocation, in preference order.

        ``avoid_zones`` drops zones the *tenant* refuses to buy in (e.g.
        zones under an outage warning: the cloud still sells capacity there,
        but every grant would die at the outage start).
        """
        if zone is not None:
            if zone not in self.zones:
                raise KeyError(f"unknown zone {zone!r}; available: {self.zone_names}")
            return [self.zones[zone]]
        avoided = set(avoid_zones or ())
        return [spec for name, spec in self.zones.items() if name not in avoided]

    def request_on_demand(
        self,
        count: int,
        zone: Optional[str] = None,
        avoid_zones: Optional[Sequence[str]] = None,
    ) -> List[Instance]:
        """Allocate *count* on-demand instances.

        Always succeeds up to the targeted zones' capacity.  The instances
        become usable after the instance type's startup delay and are
        announced with an ``ACQUISITION_READY`` event.  With ``zone=None``
        the request spreads over zones in declaration order, skipping any
        ``avoid_zones``.
        """
        if count <= 0:
            return []
        now = self.simulator.now
        granted: List[Instance] = []
        for zone_spec in self._allocation_zones(zone, avoid_zones):
            room = self.capacity_remaining(zone_spec.name)
            want = min(count - len(granted), room)
            if self.fault_injector is not None and want > 0:
                want -= self.fault_injector.refused_count(
                    zone_spec.name, "on_demand", want
                )
            for _ in range(want):
                instance = Instance(
                    instance_type=self.instance_type,
                    market=Market.ON_DEMAND,
                    launch_time=now,
                    zone=zone_spec.name,
                )
                self._instances[instance.instance_id] = instance
                self._alive[instance.instance_id] = instance
                self.cost_tracker.start_billing(
                    instance, now, zone_spec.on_demand_schedule(self.instance_type)
                )
                self._schedule_ready(instance, now + self.instance_type.startup_delay)
                granted.append(instance)
            if len(granted) >= count:
                break
        return granted

    def request_spot(
        self,
        count: int,
        zone: Optional[str] = None,
        avoid_zones: Optional[Sequence[str]] = None,
    ) -> List[Instance]:
        """Try to allocate extra spot instances beyond the trace.

        The published traces already encode every spot instance the cloud was
        willing to grant, so by default extra requests fail (return an empty
        list); set ``allow_spot_requests=True`` to model a more generous
        multi-zone market.  Grants are clipped to each zone's capacity and
        skip any ``avoid_zones``.
        """
        if count <= 0 or not self.allow_spot_requests:
            return []
        now = self.simulator.now
        granted: List[Instance] = []
        for zone_spec in self._allocation_zones(zone, avoid_zones):
            room = self.capacity_remaining(zone_spec.name)
            want = min(count - len(granted), room)
            if self.fault_injector is not None and want > 0:
                want -= self.fault_injector.refused_count(zone_spec.name, "spot", want)
            for _ in range(want):
                granted.append(
                    self._grant_spot_instance(now, zone_spec, ready_immediately=False)
                )
            if len(granted) >= count:
                break
        return granted

    def release(self, instance: Instance) -> None:
        """Voluntarily return *instance* to the cloud (stops billing).

        A still-launching instance can be released too (the launch watchdog
        abandons stuck launches); its pending ready announcement is
        cancelled so it never tries to mark a released instance ready.
        """
        if not instance.is_alive:
            return
        pending_ready = self._pending_ready.pop(instance.instance_id, None)
        if pending_ready is not None:
            pending_ready.cancel()
        self._alive.pop(instance.instance_id, None)
        instance.release(self.simulator.now)
        self.cost_tracker.stop_billing(instance, self.simulator.now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def usable_instances(self) -> List[Instance]:
        """Instances that can currently run inference."""
        return [inst for inst in self.alive_instances() if inst.is_usable]

    def alive_instances(self) -> List[Instance]:
        """Instances that are launching or usable, in grant order.

        Walks the live index only.  An instance killed through its own
        :class:`Instance` method, outside the provider, is dropped from the
        index here.
        """
        alive = [inst for inst in self._alive.values() if inst.is_alive]
        if len(alive) < len(self._alive):
            self._alive = {inst.instance_id: inst for inst in alive}
        return alive

    def alive_in_zone(self, zone: str) -> int:
        """Alive (launching or usable) instances currently in *zone*."""
        return sum(1 for inst in self.alive_instances() if inst.zone == zone)

    def capacity_remaining(self, zone: str) -> int:
        """Instances the zone can still host (a large number when unlimited).

        A zone inside an outage window has no capacity at all: trace grants
        and allocation requests alike are refused until the window ends.
        """
        spec = self.zones[zone]
        if spec.outage_at(self.simulator.now) is not None:
            return 0
        if spec.capacity is None:
            return 1_000_000
        return max(spec.capacity - self.alive_in_zone(zone), 0)

    def spot_price(self, zone: str, time: Optional[float] = None) -> float:
        """Hourly spot price of *zone* at *time* (defaults to now)."""
        when = self.simulator.now if time is None else time
        return self.zones[zone].spot_schedule(self.instance_type).price_at(when)

    def on_demand_price(self, zone: str, time: Optional[float] = None) -> float:
        """Hourly on-demand price of *zone* at *time* (defaults to now)."""
        when = self.simulator.now if time is None else time
        return self.zones[zone].on_demand_schedule(self.instance_type).price_at(when)
