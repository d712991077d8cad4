"""Instance manager.

The instance manager is the SpotServe component (Figure 3) that "interacts
with the cloud and receives instance preemption/acquisition notifications".
It owns the set of instances the serving system is currently paying for,
implements the allocation policy of Algorithm 1 (allocate on-demand and spot
simultaneously, release on-demand first) and maintains the small candidate
pool of spare instances the paper keeps for smoother substitutions.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..sim.events import Event
from .instance import Instance, Market
from .provider import CloudProvider

#: Spare instances :meth:`InstanceManager.free` keeps held when asked to
#: preserve the candidate pool.
CANDIDATE_POOL_SIZE = 2


class InstanceManager:
    """Tracks held instances and talks to the :class:`CloudProvider`."""

    def __init__(
        self,
        provider: CloudProvider,
        allow_on_demand: bool = False,
    ) -> None:
        self.provider = provider
        self.allow_on_demand = allow_on_demand
        self._held: Dict[str, Instance] = {}
        #: Instance id -> earliest announced reclaim deadline, for every
        #: instance inside a grace period (preemption notice or zone-outage
        #: warning).  These instances are out of :meth:`stable_instances`,
        #: and the JIT arrangement budgets against the earliest deadline.
        self.grace_deadlines: Dict[str, float] = {}
        #: Zone -> outage start while a zone-outage warning is active.
        #: Buying there is wasted (every grant dies at the outage start),
        #: and an instance becoming ready there is doomed on arrival.
        self.doomed_zones: Dict[str, float] = {}
        #: Tenancy hooks, installed by :mod:`repro.core.tenancy` and all
        #: ``None`` in single-tenant mode so legacy behaviour (and the golden
        #: digests) is untouched.  ``allowed_zones`` restricts allocations
        #: and zone views to a subset of the market's zones;
        #: ``ownership_filter`` (see :meth:`owns`) restricts provider-wide
        #: views and the serving system's instance events to instances owned
        #: by this manager's tenant; ``granted_hook`` is called once per
        #: freshly granted instance so the coordinator can record ownership;
        #: ``excluded`` hides, until the next rebalance, the held instances
        #: the coordinator's fleet split left out of this tenant's share
        #: (busy ones it gave to another tenant, and any cap overflow).
        self.allowed_zones: Optional[FrozenSet[str]] = None
        self.ownership_filter: Optional[Callable[[Instance], bool]] = None
        self.granted_hook: Optional[Callable[[Instance], None]] = None
        self.excluded: Optional[FrozenSet[str]] = None

    # ------------------------------------------------------------------
    # Event intake (wired by the serving system)
    # ------------------------------------------------------------------
    def on_acquisition_ready(self, event: Event) -> Instance:
        """Record that a new instance became usable.

        A newcomer in a zone already under an outage warning gets no
        individual preemption notice, so it is doomed on arrival.
        """
        instance: Instance = event.payload["instance"]
        self._held[instance.instance_id] = instance
        deadline = self.doomed_zones.get(instance.zone)
        if deadline is not None:
            self.grace_deadlines[instance.instance_id] = deadline
        return instance

    def on_preemption_notice(self, event: Event) -> Instance:
        """Record a preemption notice (the instance stays usable until the deadline).

        An instance can be doomed twice (zone-outage warning, then an
        individual trace preemption); the *earliest* deadline wins or the
        JIT arranger would budget the evacuation past the real reclaim.
        """
        instance: Instance = event.payload["instance"]
        deadline: float = event.payload["deadline"]
        existing = self.grace_deadlines.get(instance.instance_id)
        if existing is not None and existing < deadline:
            deadline = existing
        self.grace_deadlines[instance.instance_id] = deadline
        return instance

    def on_preemption_final(self, event: Event) -> Instance:
        """Drop an instance that has been reclaimed by the cloud."""
        instance: Instance = event.payload["instance"]
        self._held.pop(instance.instance_id, None)
        self.grace_deadlines.pop(instance.instance_id, None)
        return instance

    def on_zone_outage_warning(self, zone: str, deadline: float) -> None:
        """Mark *every* held instance of *zone* as doomed by *deadline*.

        Spot instances also receive individual preemption notices from the
        provider, but on-demand instances get none -- a zone outage is the
        only thing that kills them -- so the whole zone is excluded from
        :meth:`stable_instances` here.  An instance already in a grace
        period keeps the earlier of its two deadlines, as in
        :meth:`on_preemption_notice`.
        """
        self.doomed_zones[zone] = deadline
        for instance in self._held.values():
            if instance.zone == zone and instance.is_usable:
                existing = self.grace_deadlines.get(instance.instance_id)
                if existing is None or deadline < existing:
                    self.grace_deadlines[instance.instance_id] = deadline

    def on_zone_outage_down(self, zone: str) -> List[Instance]:
        """Drop every held instance of *zone* that the outage killed.

        Instances that died without an individual ``PREEMPTION_FINAL`` event
        (on-demand, or spot granted after the warning) are removed here;
        returns the instances that were dropped.
        """
        self.doomed_zones.pop(zone, None)
        dropped: List[Instance] = []
        for instance_id in list(self._held):
            instance = self._held[instance_id]
            if instance.zone != zone or instance.is_alive:
                continue
            self._held.pop(instance_id, None)
            self.grace_deadlines.pop(instance_id, None)
            dropped.append(instance)
        return dropped

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def held_instances(self) -> List[Instance]:
        """Every instance the system currently holds and can use."""
        return [inst for inst in self._held.values() if inst.is_usable]

    def stable_instances(self) -> List[Instance]:
        """Usable instances that are *not* in a grace period.

        This is the set the parallelization controller should target: the
        paper's ``N_t`` "includes newly allocated instances and excludes
        instances to be preempted".
        """
        excluded = self.excluded
        return [
            inst
            for inst in self._held.values()
            if inst.is_usable
            and inst.instance_id not in self.grace_deadlines
            and (excluded is None or inst.instance_id not in excluded)
        ]

    def available_count(self) -> int:
        """``N_t`` of Algorithm 1: usable instances not scheduled for preemption."""
        return len(self.stable_instances())

    def on_demand_alive(self) -> int:
        """On-demand instances alive anywhere (held, launching or spare)."""
        return sum(
            1
            for inst in self.provider.alive_instances()
            if inst.market is Market.ON_DEMAND and self.owns(inst)
        )

    def launching_instances(self) -> List[Instance]:
        """Granted instances still booting (candidates for the launch watchdog).

        These live in the provider's fleet, not ``_held`` -- an instance is
        only adopted once its ``ACQUISITION_READY`` fires -- so the view goes
        through the provider.
        """
        return [
            inst
            for inst in self.provider.alive_instances()
            if inst.is_launching and self.owns(inst)
        ]

    def visible_zones(self) -> List[str]:
        """The market zones this manager may use (all of them by default)."""
        if self.allowed_zones is None:
            return self.provider.zone_names
        return [name for name in self.provider.zone_names if name in self.allowed_zones]

    def stable_devices(self) -> List[Tuple[str, int]]:
        """GPU ids of :meth:`stable_instances`, zone-major.

        Zone-major ordering keeps each pipeline's contiguous position block
        inside one zone whenever the fleet allows it.
        """
        devices: List[Tuple[str, int]] = []
        for instance in sorted(
            self.stable_instances(), key=lambda inst: (inst.zone, inst.instance_id)
        ):
            devices.extend(instance.gpu_ids)
        return devices

    def owns(self, instance: Instance) -> bool:
        """True when *instance* belongs to this manager's tenant (or no filter).

        Serving systems sharing one simulator ignore the instance-scoped
        cloud events this predicate rejects.
        """
        return self.ownership_filter is None or self.ownership_filter(instance)

    def on_launch_failure(self, event: Event) -> Instance:
        """Forget an instance whose launch died before becoming ready.

        Launching instances are not yet held, so this is mostly defensive;
        it also clears any doomed marking the failed instance carried.
        """
        instance: Instance = event.payload["instance"]
        self._held.pop(instance.instance_id, None)
        self.grace_deadlines.pop(instance.instance_id, None)
        return instance

    # ------------------------------------------------------------------
    # Algorithm 1 allocation policy
    # ------------------------------------------------------------------
    def alloc(
        self,
        count: int,
        zone: Optional[str] = None,
        avoid_zones: Optional[Sequence[str]] = None,
    ) -> List[Instance]:
        """Request *count* extra instances (Algorithm 1, line 8).

        Spot and on-demand allocations are issued at the same time so that a
        failed spot allocation does not delay capacity recovery; on-demand is
        only used when mixing is enabled.  ``zone`` pins the request to one
        availability zone (the autoscaler's per-zone decisions use this);
        ``avoid_zones`` keeps zone-spread requests out of zones the serving
        system knows are doomed (outage warnings).  Returns the instances
        that were actually granted (they become usable later, announced by
        ``ACQUISITION_READY`` events).
        """
        if count <= 0:
            return []
        if self.allowed_zones is not None:
            if zone is not None:
                if zone not in self.allowed_zones:
                    return []
            else:
                forbidden = sorted(
                    set(self.provider.zone_names) - self.allowed_zones
                )
                avoid_zones = list(avoid_zones or ()) + forbidden
        granted: List[Instance] = list(
            self.provider.request_spot(count, zone=zone, avoid_zones=avoid_zones)
        )
        if self.allow_on_demand:
            remaining = count - len(granted)
            if remaining > 0:
                granted.extend(
                    self.provider.request_on_demand(
                        remaining, zone=zone, avoid_zones=avoid_zones
                    )
                )
        if self.granted_hook is not None:
            for instance in granted:
                self.granted_hook(instance)
        return granted

    def free(
        self,
        count: int,
        zone: Optional[str] = None,
        keep_pool: bool = True,
        avoid: Optional[Sequence[str]] = None,
    ) -> List[Instance]:
        """Release *count* held instances (Algorithm 1, line 10).

        On-demand instances are released first because they cost more; within
        a market the most recently acquired instances go first.  With
        ``keep_pool=True`` the candidate pool is preserved: the manager keeps
        up to :data:`CANDIDATE_POOL_SIZE` extra instances as spares.  ``zone``
        restricts releases to one availability zone and ``avoid`` protects
        instances (e.g. those hosting live pipelines) from release.
        """
        if count <= 0:
            return []
        if keep_pool:
            count = max(count - CANDIDATE_POOL_SIZE, 0)
        if count == 0:
            return []
        protected = set(avoid or ())
        candidates = sorted(
            (
                inst
                for inst in self.held_instances()
                if (zone is None or inst.zone == zone)
                and inst.instance_id not in protected
            ),
            key=lambda inst: (
                0 if inst.market is Market.ON_DEMAND else 1,
                -inst.launch_time,
                inst.instance_id,
            ),
        )
        released: List[Instance] = []
        for instance in candidates[:count]:
            self.provider.release(instance)
            self._held.pop(instance.instance_id, None)
            released.append(instance)
        return released

    def adopt_initial_fleet(self) -> List[Instance]:
        """Adopt every instance the provider already made usable (time zero fleet).

        In multi-tenant mode the :attr:`ownership_filter` keeps each tenant's
        manager to the slice of the initial fleet the coordinator assigned it.
        """
        for instance in self.provider.usable_instances():
            if self.owns(instance):
                self._held[instance.instance_id] = instance
        return self.held_instances()

    # ------------------------------------------------------------------
    # Multi-tenant rebalance handover
    # ------------------------------------------------------------------
    def adopt(self, instance: Instance) -> None:
        """Take ownership of an already-usable *instance* (tenant rebalance)."""
        self._held[instance.instance_id] = instance

    def disown(self, instance_id: str) -> Optional[Instance]:
        """Release bookkeeping for *instance_id* without terminating it.

        Used by the tenancy coordinator to hand an idle instance to another
        tenant's manager; returns the instance, or ``None`` if it was not held.
        """
        self.grace_deadlines.pop(instance_id, None)
        return self._held.pop(instance_id, None)
