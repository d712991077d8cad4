"""Fleet acquisition: the instance-manager side of the serving system.

SpotServe's instance manager (Figure 3) talks to the cloud: it asks for
instances and gives them back.  :class:`FleetAcquirer` makes every such
request on behalf of one serving system:

* the demand-driven autoscaler round (:meth:`FleetAcquirer.run_autoscaler`);
* Algorithm 1's grow/release step when no autoscaler sizes the fleet
  (:meth:`FleetAcquirer.follow_optimizer`);
* acquisition resilience: capped-backoff retries for refused or failed
  acquisitions, a launch watchdog for stragglers, and the shortfall counter
  for demand that stays unmet once the retry budget is spent.

Two decisions live here and nowhere else.  An autoscaler, when one is
installed, owns fleet sizing and Algorithm 1 only picks the configuration.
Retries and the launch watchdog run exactly when the provider carries a
fault injector; without one, every hook below is a no-op and the run is
byte-identical to the fault-free code.

The acquirer reads the serving system's autoscaler, controller, queue and
deployment at call time, so outside instrumentation that wraps them after
construction sees every call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..cloud.instance import Instance
from ..sim.events import Event, EventType
from .autoscaler import AutoscaleSignal, ZoneView
from .controller import OptimizerDecision
from .stats import AutoscaleRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .server import ServingSystemBase

#: Extra on-demand instances Algorithm 1 may request beyond the fleet.
MAX_ON_DEMAND_EXTRA = 4
#: Launch-watchdog timeout as a multiple of the instance startup delay.
LAUNCH_WATCHDOG_MULTIPLIER = 3.0
#: Backoff before the first acquisition retry (seconds); each further
#: attempt doubles it up to :data:`RETRY_MAX_DELAY`.
RETRY_BASE_DELAY = 2.0
#: Cap of the exponential retry backoff (seconds), before jitter.
RETRY_MAX_DELAY = 30.0
#: Retries of one refused or failed acquisition before its demand counts
#: as a shortfall.
RETRY_MAX_ATTEMPTS = 6
#: Largest jitter, as a fraction of the backoff.
RETRY_JITTER = 0.25


def retry_delay(attempt: int, u: float) -> float:
    """Backoff before retry *attempt* (0-based), jittered by *u* in [0,1).

    Pure: the caller supplies the uniform draw *u* from its own seeded
    stream, so two runs with the same streams back off identically.
    """
    raw = min(RETRY_BASE_DELAY * (2.0 ** attempt), RETRY_MAX_DELAY)
    return raw * (1.0 + RETRY_JITTER * u)


class FleetAcquirer:
    """Requests and releases instances for one serving system."""

    def __init__(self, system: "ServingSystemBase") -> None:
        self.system = system
        #: Retries and the launch watchdog run exactly when this is set.
        self.injector = system.provider.fault_injector
        #: Instances awaiting a scheduled backoff retry (fed to the
        #: autoscaler as ``pending_retries`` so it never double-requests).
        self.pending_retries = 0
        #: Launch-watchdog events per still-launching instance id.
        self._watchdogs: Dict[str, Event] = {}

    # ------------------------------------------------------------------
    # Fleet sizing
    # ------------------------------------------------------------------
    def run_autoscaler(self) -> None:
        """Consult the autoscaler and apply its per-zone acquire/release plan.

        Instances hosting live pipelines are protected from release; the
        parallelization controller then re-optimises the configuration for
        whatever fleet materialises (new instances announce themselves with
        ``ACQUISITION_READY`` events, which already trigger a replan).
        """
        system = self.system
        autoscaler = system.autoscaler
        if system.reconfiguring:
            # Mid-migration the pipeline set is empty, so the release guard
            # could not protect instances the in-flight placement depends
            # on; defer to the next round.
            return
        signal = self._autoscale_signal()
        decision = autoscaler.plan(signal)
        if decision.is_noop:
            return
        acquired: Dict[str, int] = {}
        missing = 0
        for zone in sorted(decision.acquire):
            want = decision.acquire[zone]
            granted = self._allocate(want, zone=zone)
            if granted:
                acquired[zone] = len(granted)
            if want > len(granted):
                missing += want - len(granted)
        released: Dict[str, int] = {}
        if decision.release:
            in_use = system.dataplane.instance_ids()
            for zone in sorted(decision.release):
                freed = system.instance_manager.free(
                    decision.release[zone], zone=zone, keep_pool=False, avoid=in_use
                )
                if freed:
                    released[zone] = len(freed)
        if not acquired and not released:
            # Nothing could be applied (e.g. every grant failed); undo the
            # cooldown so the phantom action does not suppress real scaling.
            # A backoff retry (when enabled) still chases the unmet demand,
            # and ``pending_retries`` keeps the next round from also
            # re-requesting it.
            self._retry(missing, None, trigger="autoscale")
            autoscaler.cancel_last_action(signal.time)
            return
        if missing and not self._retry(missing, None, trigger="autoscale"):
            # No retry machinery to chase it: the demand is terminally
            # unmet and lands in the shortfall counter instead.
            system.stats.allocation_shortfall += missing
        system.stats.record_autoscale(
            AutoscaleRecord(
                time=signal.time,
                reason=decision.reason,
                acquired=acquired,
                released=released,
                fleet_before=signal.current_instances,
            )
        )

    def _autoscale_signal(self) -> AutoscaleSignal:
        """Snapshot demand (from the serving system) and the fleet for one round."""
        system = self.system
        manager = system.instance_manager
        provider = system.provider
        now = system.simulator.now
        arrival_rate, estimate = system.serving_estimate()
        in_use = system.dataplane.instance_ids()
        # One read of the stable fleet: its size is N_t, and its instances
        # hosting no live pipeline are each zone's releasable count.
        stable = manager.stable_instances()
        releasable: Dict[str, int] = {}
        for instance in stable:
            if instance.instance_id not in in_use:
                releasable[instance.zone] = releasable.get(instance.zone, 0) + 1
        zones = tuple(
            ZoneView(
                name=name,
                # A zone under an outage warning still *sells* capacity (the
                # provider only zeroes it inside the window), but buying
                # there would burn the acquire budget on instances that die
                # at the outage start -- the evacuation's back-fill must
                # land in surviving zones, so doomed zones read as full.
                capacity_remaining=(
                    0 if name in manager.doomed_zones else provider.capacity_remaining(name)
                ),
                spot_price=provider.spot_price(name, now),
                on_demand_price=provider.on_demand_price(name, now),
                releasable=releasable.get(name, 0),
            )
            for name in manager.visible_zones()
        )
        return AutoscaleSignal(
            time=now,
            arrival_rate=arrival_rate,
            serving_throughput=estimate.throughput if estimate is not None else 0.0,
            queue_depth=system.request_queue.pending,
            current_instances=len(stable),
            gpus_per_instance=system.gpus_per_instance,
            pending_instances=len(manager.launching_instances()),
            pending_retries=self.pending_retries,
            spot_requests_allowed=provider.allow_spot_requests,
            zones=zones,
        )

    def follow_optimizer(
        self, decision: OptimizerDecision, target: OptimizerDecision, available: int
    ) -> None:
        """Algorithm 1, lines 6-10: grow toward *decision*, or shrink to *target*.

        Growth follows the optimizer's ideal configuration but is capped by
        the on-demand budget (counting instances that are still launching,
        so repeated triggers do not over-allocate); shrinking follows what
        is actually being deployed so spare spot capacity is not released
        while it is still useful.  When an autoscaler is installed it owns
        fleet sizing, so Algorithm 1 only picks the configuration.
        """
        system = self.system
        if system.autoscaler is not None:
            return
        manager = system.instance_manager
        if decision.instance_delta > 0:
            budget = decision.instance_delta
            if manager.allow_on_demand:
                budget = min(
                    budget, max(MAX_ON_DEMAND_EXTRA - manager.on_demand_alive(), 0)
                )
            if budget > 0:
                granted = self._allocate(budget, avoid_zones=tuple(manager.doomed_zones))
                # Chase refused capacity with backoff when retries are on; a
                # plain spot-market "no" (the by-design fault-free refusal)
                # is not counted as shortfall here -- Algorithm 1
                # re-requests at the next trigger anyway.
                self._retry(budget - len(granted), None, trigger="growth")
        else:
            release = available - target.config.num_instances(system.gpus_per_instance)
            if release > 0:
                manager.free(release)

    # ------------------------------------------------------------------
    # Launch lifecycle (called by the serving system's cloud handlers)
    # ------------------------------------------------------------------
    def disarm_watchdog(self, instance: Instance) -> None:
        """Disarm *instance*'s launch watchdog: it became ready or failed."""
        watchdog = self._watchdogs.pop(instance.instance_id, None)
        if watchdog is not None:
            watchdog.cancel()

    def launch_failed(self, instance: Instance) -> None:
        """Re-request a launch that died, avoiding the zone that failed it.

        Only an injector fails launches, so a retry is always scheduled.
        """
        self.disarm_watchdog(instance)
        self._retry(1, instance.zone, (instance.zone,), trigger="launch-failure")

    # ------------------------------------------------------------------
    # Acquisition resilience (retry/backoff + launch watchdog)
    # ------------------------------------------------------------------
    def _allocate(
        self,
        count: int,
        zone: Optional[str] = None,
        avoid_zones: Optional[Sequence[str]] = None,
    ) -> List[Instance]:
        """Allocate through the instance manager and arm the watchdog on each grant.

        Every instance request of this system passes here, so the
        refusals the injector draws during the call are this system's.
        """
        system = self.system
        injector = self.injector
        if injector is None:
            return system.instance_manager.alloc(count, zone=zone, avoid_zones=avoid_zones)
        refused_before = injector.allocation_refusals
        granted = system.instance_manager.alloc(count, zone=zone, avoid_zones=avoid_zones)
        system.stats.allocation_refusals += injector.allocation_refusals - refused_before
        timeout = LAUNCH_WATCHDOG_MULTIPLIER * system.provider.instance_type.startup_delay
        for instance in granted:
            self._watchdogs[instance.instance_id] = system.simulator.schedule_after(
                timeout,
                EventType.GENERIC,
                payload={"server_action": "launch_watchdog", "instance": instance},
                callback=self._on_launch_watchdog,
            )
        return granted

    def _retry(
        self,
        count: int,
        zone: Optional[str],
        avoid: Sequence[str] = (),
        attempt: int = 0,
        *,
        trigger: str,
    ) -> bool:
        """Schedule a backoff retry for *count* refused/failed acquisitions.

        Returns True when a retry was scheduled; False without a fault
        injector, for a non-positive *count*, or when the attempt budget is
        exhausted (the caller then reports the demand as terminally unmet).
        ``zone`` scopes the jitter stream (and names the zone that refused,
        for diagnostics); the retry itself spreads over every non-avoided
        zone so capacity recovers wherever the cloud still sells it.
        """
        injector = self.injector
        if injector is None or count <= 0 or attempt >= RETRY_MAX_ATTEMPTS:
            return False
        delay = retry_delay(attempt, injector.retry_jitter(zone or "any"))
        self.pending_retries += count
        self.system.simulator.schedule_after(
            delay,
            EventType.GENERIC,
            payload={
                "server_action": "acquisition_retry",
                "count": count,
                "zone": zone,
                "avoid": tuple(avoid),
                "attempt": attempt,
                "trigger": trigger,
            },
            callback=self._on_acquisition_retry,
        )
        return True

    def _on_acquisition_retry(self, event: Event) -> None:
        """Fire one backoff retry: re-request, then re-arm or give up."""
        payload = event.payload
        count: int = payload["count"]
        self.pending_retries -= count
        self.system.stats.acquisition_retries += 1
        avoid = set(payload["avoid"]) | set(self.system.instance_manager.doomed_zones)
        missing = count - len(self._allocate(count, avoid_zones=tuple(avoid)))
        if missing > 0 and not self._retry(
            missing,
            payload["zone"],
            payload["avoid"],
            payload["attempt"] + 1,
            trigger=payload["trigger"],
        ):
            # Bounded backoff exhausted: report instead of retrying forever.
            self.system.stats.allocation_shortfall += missing

    def _on_launch_watchdog(self, event: Event) -> None:
        """Abandon a launch stuck past the watchdog timeout and re-request.

        Straggler launches whose stretched startup delay exceeds the
        watchdog bound are released (their ready announcement is cancelled
        by the provider) and one replacement is requested in the surviving
        zones, avoiding the zone that stalled.  Only an injector arms the
        watchdog, so a first retry for a refused replacement always fits
        the attempt budget.
        """
        instance: Instance = event.payload["instance"]
        self._watchdogs.pop(instance.instance_id, None)
        if not instance.is_launching:
            return  # Became ready, failed, or died with its zone: nothing to do.
        system = self.system
        system.provider.release(instance)
        system.stats.acquisition_retries += 1
        avoid = set(system.instance_manager.doomed_zones)
        avoid.add(instance.zone)
        if not self._allocate(1, avoid_zones=tuple(avoid)):
            self._retry(1, instance.zone, (instance.zone,), trigger="watchdog")
