"""Multi-tenant serving: several model specs sharing one spot fleet.

The paper's adaptation loop assumes a single model spec owns the whole
fleet.  This module lifts that assumption the way ReaLHF's
``ModelDeviceMapping`` maps multiple models onto overlapping device meshes:
a :class:`FleetPartitioner` splits the available fleet across tenants once
per adaptation round (proportional share by estimated demand, priority
weighted, with a starvation floor), and each tenant then runs the existing
propose/map/plan stack against its own partition -- the device mapper
places heterogeneous pipeline groups side by side and the migration
planner stays tenant-local.

Three pieces cooperate:

* :class:`TenantSpec` -- one tenant's model, SLO, priority, admission
  budget and arrival workload.
* :class:`FleetPartitioner` -- the per-round split.  Installed on
  ``SpotServeOptions.fleet_partitioner`` it is consulted by every tenant's
  :meth:`~repro.core.server.ServingSystemBase._run_partitioner_round`; a
  single-tenant setup always receives its full stable set back, so the
  legacy golden digests stay byte-identical (pinned non-vacuously by a
  counting-partitioner test).
* :class:`MultiTenantSystem` -- the coordinator.  It builds one ordinary
  serving system per tenant on the *shared* simulator and provider, wires
  the ownership predicate and zone set that scope each tenant's instance
  manager -- and with it the tenant's instance events -- to its own slice,
  and periodically rebalances idle instances between tenants according to
  the partitioner's advice.

Per-tenant request conservation (``submitted == completed + unfinished +
dropped + rejected + shed`` for every tenant, summing to the fleet-wide
counters) is pinned by ``tests/test_tenancy.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from ..cloud.instance import Instance
from ..cloud.provider import CloudProvider
from ..llm.spec import get_model
from ..perf import PhaseTimers
from ..sim.engine import Simulator
from ..sim.events import Event, EventType
from ..workload.arrival import ArrivalProcess, GammaArrivals
from .server import ServingSystemBase, SpotServeOptions, SpotServeSystem
from .stats import ServingStats


@dataclass(frozen=True)
class TenantDemand:
    """One tenant's demand snapshot, as seen by the partitioner."""

    #: Tenant name (the partition key).
    name: str
    #: Relative priority weight (higher wins more of the contended fleet).
    priority: float = 1.0
    #: Estimated request arrival rate (requests/second).
    arrival_rate: float = 0.0
    #: Starvation floor: instances this tenant must receive when feasible.
    min_instances: int = 0
    #: Hard cap on this tenant's share (``None`` = unbounded).
    max_instances: Optional[int] = None
    #: Zones this tenant may occupy (``None`` = the whole market).
    zones: Optional[Tuple[str, ...]] = None

    def weight(self) -> float:
        """Priority-weighted demand used for proportional sharing."""
        return max(self.priority, 1e-9) * max(self.arrival_rate, 1e-6)

    def eligible(self, instance: Instance) -> bool:
        """True when *instance*'s zone is one this tenant may occupy."""
        return self.zones is None or instance.zone in self.zones


@dataclass(frozen=True)
class TenantSpec:
    """Static description of one tenant sharing the fleet.

    Frozen (and therefore hashable/picklable) so specs can parameterise
    benchmark sweeps; dict-valued knobs are carried as tuples of pairs.
    """

    #: Unique tenant name; becomes the ``tenant`` label on its requests,
    #: stats and billing share.
    name: str
    #: Model catalog name served for this tenant.
    model_name: str = "OPT-6.7B"
    #: Partitioner priority weight (higher wins more of the contended fleet).
    priority: float = 1.0
    #: Latency SLO forwarded to the tenant's optimizer/admission policy.
    slo_latency: Optional[float] = None
    #: Admission-policy name (see :mod:`repro.core.admission`); ``None``
    #: disables overload control for this tenant.
    admission: Optional[str] = None
    #: Admission-policy kwargs as ``((key, value), ...)`` pairs.
    admission_params: Optional[Tuple[Tuple[str, object], ...]] = None
    #: Starvation floor the partitioner must honour when feasible.
    min_instances: int = 0
    #: Hard cap on this tenant's fleet share (``None`` = unbounded).
    max_instances: Optional[int] = None
    #: Zones this tenant may occupy (``None`` = the whole market).
    zones: Optional[Tuple[str, ...]] = None
    #: Nominal arrival rate of the tenant's Gamma workload (req/s).
    arrival_rate: float = 0.35
    #: Coefficient of variation of the Gamma inter-arrival times.
    cv: float = 6.0
    #: Seed of the tenant's arrival process (independent per tenant).
    seed: int = 0
    #: Autoscaling policy name (``None`` disables fleet growth).
    autoscale_policy: Optional[str] = None
    #: Autoscaler kwargs as ``((key, value), ...)`` pairs.
    autoscale_params: Optional[Tuple[Tuple[str, object], ...]] = None
    #: Seconds between this tenant's adaptation rounds.
    workload_check_interval: float = 30.0

    def arrival_process(self) -> ArrivalProcess:
        """The tenant's seeded Gamma arrival workload."""
        return GammaArrivals(self.arrival_rate, cv=self.cv, seed=self.seed)

    def options(self) -> SpotServeOptions:
        """Serving-system options implementing this tenant's policy knobs."""
        return SpotServeOptions(
            slo_latency=self.slo_latency,
            admission=self.admission,
            admission_params=(
                dict(self.admission_params) if self.admission_params else None
            ),
            autoscale_policy=self.autoscale_policy,
            autoscale_params=(
                dict(self.autoscale_params) if self.autoscale_params else None
            ),
            workload_check_interval=self.workload_check_interval,
        )

    def demand(self, arrival_rate: Optional[float] = None) -> TenantDemand:
        """This tenant's demand snapshot at *arrival_rate* (nominal default)."""
        return TenantDemand(
            name=self.name,
            priority=self.priority,
            arrival_rate=self.arrival_rate if arrival_rate is None else arrival_rate,
            min_instances=self.min_instances,
            max_instances=self.max_instances,
            zones=self.zones,
        )


class FleetPartitioner:
    """Splits the available fleet across tenants, once per adaptation round.

    The split is a priority-weighted proportional share of each tenant's
    estimated demand (highest-averages / D'Hondt apportionment), after every
    tenant received its starvation floor.  Zone eligibility and per-tenant
    caps are respected, assignment is sticky (instances stay with their
    previous owner when the counts allow) and the whole computation is a
    pure function of its sorted inputs -- repeat runs are byte-identical,
    which the property suite pins.

    Consulted two ways:

    * :meth:`partition` -- the full multi-tenant split, used by the
      :class:`MultiTenantSystem` coordinator.
    * :meth:`share_for` -- the per-round hook each serving system calls via
      ``SpotServeOptions.fleet_partitioner``.  For a registered tenant it
      returns that tenant's slice of the full split; for an unregistered
      (single-tenant) system it degenerates to the system's entire stable
      set, leaving legacy behaviour -- and the golden digests -- untouched.
    """

    def __init__(self, starvation_floor: int = 1) -> None:
        #: Instances every active tenant is guaranteed when feasible.
        self.starvation_floor = starvation_floor
        self._specs: Dict[str, TenantSpec] = {}
        self._systems: Dict[str, ServingSystemBase] = {}
        #: Sticky owner map (instance id -> tenant) shared with the
        #: coordinator; ``None`` until :meth:`bind_owners` is called.
        self._owners: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------------
    # Coordinator wiring
    # ------------------------------------------------------------------
    def register(self, spec: TenantSpec, system: ServingSystemBase) -> None:
        """Attach one tenant's spec and live serving system."""
        self._specs[spec.name] = spec
        self._systems[spec.name] = system

    def bind_owners(self, owners: Dict[str, str]) -> None:
        """Share the coordinator's live owner map for sticky assignment."""
        self._owners = owners

    # ------------------------------------------------------------------
    # The split
    # ------------------------------------------------------------------
    def partition(
        self,
        instances: Sequence[Instance],
        demands: Sequence[TenantDemand],
        previous: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Tuple[str, ...]]:
        """Split *instances* across *demands*; returns name -> instance ids.

        Shares are disjoint and cover at most the input fleet (instances no
        eligible tenant can take stay unassigned).  Floors are honoured
        before any proportional top-up, so no tenant starves while the
        fleet can feed it.  *previous* (instance id -> tenant name) makes
        the assignment sticky: an instance keeps its owner whenever the new
        counts and eligibility allow, minimising migration churn.
        """
        ordered = sorted(instances, key=lambda inst: (inst.zone, inst.instance_id))
        by_name = {demand.name: demand for demand in demands}
        names = sorted(by_name)
        eligible_count = {
            name: sum(1 for inst in ordered if by_name[name].eligible(inst))
            for name in names
        }
        caps = {
            name: min(
                eligible_count[name],
                by_name[name].max_instances
                if by_name[name].max_instances is not None
                else len(ordered),
            )
            for name in names
        }
        targets = self._target_counts(len(ordered), by_name, names, caps)

        shares: Dict[str, List[str]] = {name: [] for name in names}
        assigned: Dict[str, str] = {}
        # Sticky pass: keep instances with their previous owner while the
        # new target still wants them.
        if previous:
            for inst in ordered:
                owner = previous.get(inst.instance_id)
                if (
                    owner in by_name
                    and by_name[owner].eligible(inst)
                    and len(shares[owner]) < targets[owner]
                ):
                    shares[owner].append(inst.instance_id)
                    assigned[inst.instance_id] = owner
        # Fill pass: floors first for everyone, then top up to targets, in
        # priority order (name-tie-broken) -- all-sorted, so deterministic.
        fill_order = sorted(names, key=lambda n: (-by_name[n].priority, n))
        floors = {
            name: min(
                max(by_name[name].min_instances, self.starvation_floor), targets[name]
            )
            for name in names
        }
        for bound in (floors, targets):
            for name in fill_order:
                demand = by_name[name]
                for inst in ordered:
                    if len(shares[name]) >= bound[name]:
                        break
                    if inst.instance_id in assigned or not demand.eligible(inst):
                        continue
                    shares[name].append(inst.instance_id)
                    assigned[inst.instance_id] = name
        return {name: tuple(shares[name]) for name in names}

    def _target_counts(
        self,
        fleet_size: int,
        by_name: Dict[str, TenantDemand],
        names: Sequence[str],
        caps: Dict[str, int],
    ) -> Dict[str, int]:
        """Per-tenant instance counts: floors, then highest-averages top-up."""
        targets = {name: 0 for name in names}
        remaining = fleet_size
        # Floors (starvation guarantee), granted in priority order while
        # capacity lasts.
        order = sorted(names, key=lambda n: (-by_name[n].priority, n))
        for name in order:
            floor = min(
                max(by_name[name].min_instances, self.starvation_floor),
                caps[name],
                remaining,
            )
            targets[name] = floor
            remaining -= floor
        # Highest-averages (D'Hondt) proportional top-up on the
        # priority-weighted demand.
        while remaining > 0:
            best: Optional[str] = None
            best_avg = -1.0
            for name in names:
                if targets[name] >= caps[name]:
                    continue
                avg = by_name[name].weight() / (targets[name] + 1)
                if avg > best_avg or (avg == best_avg and (best is None or name < best)):
                    best = name
                    best_avg = avg
            if best is None:
                break
            targets[best] += 1
            remaining -= 1
        return targets

    # ------------------------------------------------------------------
    # Per-round hook (called by ServingSystemBase._run_partitioner_round)
    # ------------------------------------------------------------------
    def share_for(self, system: ServingSystemBase) -> frozenset:
        """The instance ids *system* may plan on this round.

        Registered tenants receive their slice of the full multi-tenant
        split over the union of every tenant's stable instances; an
        unregistered (single-tenant) caller receives its entire stable set,
        so installing a partitioner on a single-tenant run is a no-op by
        construction.
        """
        name = system.tenant
        if name not in self._systems:
            stable = system.instance_manager.stable_instances()
            share = self.partition(stable, [TenantDemand(name=name or "default")])
            return frozenset(share.get(name or "default", ()))
        demands = [
            self._specs[tenant].demand(peer.estimate_arrival_rate())
            for tenant, peer in sorted(self._systems.items())
        ]
        shares = self.partition(
            self._gather_stable(), demands, previous=self._owners
        )
        return frozenset(shares.get(name, ()))

    def _gather_stable(self) -> List[Instance]:
        """Union of every registered tenant's stable instances.

        Each manager's per-round ``excluded`` view is bypassed (the
        partitioner must see the whole fleet to re-split it).
        """
        gathered: List[Instance] = []
        seen = set()
        for _, system in sorted(self._systems.items()):
            manager = system.instance_manager
            saved = manager.excluded
            manager.excluded = None
            try:
                stable = manager.stable_instances()
            finally:
                manager.excluded = saved
            for inst in stable:
                if inst.instance_id not in seen:
                    seen.add(inst.instance_id)
                    gathered.append(inst)
        return gathered


class MultiTenantSystem:
    """Coordinator running one serving system per tenant on a shared fleet.

    Each tenant gets an ordinary :class:`SpotServeSystem` on the *same*
    simulator and cloud provider; this class wires the tenancy hooks that
    keep them from treading on each other:

    * every tenant's requests carry its ``tenant`` label, and each arrival
      and batch-completion event calls back only the system that
      scheduled it;
    * each tenant's instance manager gets an ownership predicate over the
      coordinator's owner map (so instance-scoped events -- preemptions,
      acquisitions, launch failures -- only reach the owning tenant) and
      the tenant's zones, and claims granted instances into the owner map;
    * the shared :class:`FleetPartitioner` is installed on every tenant's
      options, so each adaptation round plans only on the tenant's share;
    * a periodic rebalance round moves *idle* instances between tenants
      when the partitioner's split says demand shifted.

    The per-tenant runs compose exactly like independent single-tenant runs
    on the partitioned sub-fleets -- the differential test in
    ``tests/test_tenancy.py`` pins byte-equal per-tenant digests.
    """

    name = "MultiTenantSpotServe"

    def __init__(
        self,
        simulator: Simulator,
        provider: CloudProvider,
        tenants: Sequence[TenantSpec],
    ) -> None:
        if not tenants:
            raise ValueError("at least one tenant is required")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        self.simulator = simulator
        self.provider = provider
        self.tenants: Tuple[TenantSpec, ...] = tuple(tenants)
        self.partitioner = FleetPartitioner()
        #: Live ownership map: instance id -> tenant name.
        self.owners: Dict[str, str] = {}
        self.partitioner.bind_owners(self.owners)
        #: Shared wall-clock phase timers (one propose/map/plan/simulate
        #: account for the whole fleet, read by ``benchmarks/perf``).
        self.perf = PhaseTimers()
        intervals = [
            spec.workload_check_interval
            for spec in tenants
            if spec.workload_check_interval > 0
        ]
        #: Seconds between rebalance rounds (the shortest tenant interval).
        self.rebalance_interval = min(intervals) if intervals else 0.0
        self.systems: Dict[str, ServingSystemBase] = {}
        for spec in self.tenants:
            options = spec.options()
            options.fleet_partitioner = self.partitioner
            system = SpotServeSystem(
                simulator,
                provider,
                get_model(spec.model_name),
                options=options,
                initial_arrival_rate=spec.arrival_rate,
                perf=self.perf,
                tenant=spec.name,
            )
            manager = system.instance_manager
            manager.allowed_zones = frozenset(spec.zones) if spec.zones is not None else None
            manager.ownership_filter = self._owner_predicate(spec.name)
            manager.granted_hook = self._claim_hook(spec.name)
            self.partitioner.register(spec, system)
            self.systems[spec.name] = system
        self._initialized = False

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------
    def _owner_predicate(self, tenant: str):
        """Predicate: does this tenant own the given instance?"""

        def owned(instance: Instance) -> bool:
            return self.owners.get(instance.instance_id) == tenant

        return owned

    def _claim_hook(self, tenant: str):
        """Hook recording ownership of freshly granted instances."""

        def claim(instance: Instance) -> None:
            self.owners[instance.instance_id] = tenant

        return claim

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def submit_workloads(self, duration: float) -> None:
        """Stream every tenant's arrival process for *duration* seconds."""
        for spec in self.tenants:
            self.systems[spec.name].submit_arrival_process(
                spec.arrival_process(), duration
            )

    def initialize(self) -> None:
        """Partition the time-zero fleet and deploy every tenant.

        The rebalance round is armed *before* the tenants initialise, so on
        exact timestamp ties the fleet split settles first and each
        tenant's same-time workload check already sees it (insertion order
        breaks simulator ties).
        """
        shares = self.partitioner.partition(
            self.provider.usable_instances(),
            [spec.demand() for spec in self.tenants],
        )
        for tenant, instance_ids in shares.items():
            for instance_id in instance_ids:
                self.owners[instance_id] = tenant
        if self.rebalance_interval > 0:
            self.simulator.schedule_after(
                self.rebalance_interval,
                EventType.GENERIC,
                payload={"server_action": "tenant_rebalance"},
                callback=self._on_rebalance,
            )
        for spec in self.tenants:
            self.systems[spec.name].initialize()
        self._initialized = True

    def run(self, until: float) -> Dict[str, ServingStats]:
        """Initialise (if needed), run the shared simulation, return stats."""
        if not self._initialized:
            self.initialize()
        with self.perf.phase("simulate"):
            self.simulator.run(until=until)
        return {name: system.stats for name, system in self.systems.items()}

    # ------------------------------------------------------------------
    # Rebalance round
    # ------------------------------------------------------------------
    def _on_rebalance(self, event: Event) -> None:
        """Move idle instances between tenants per the partitioner's split."""
        demands = [
            self._demand_live(spec) for spec in self.tenants
        ]
        instances = self._rebalancable_instances()
        shares = self.partitioner.partition(
            instances, demands, previous=self.owners
        )
        by_id = {inst.instance_id: inst for inst in instances}
        for tenant, instance_ids in shares.items():
            target = self.systems[tenant]
            for instance_id in instance_ids:
                current = self.owners.get(instance_id)
                if current == tenant:
                    continue
                instance = by_id[instance_id]
                if current is not None:
                    source = self.systems[current]
                    if instance_id in source.dataplane.instance_ids():
                        continue  # Busy: never steal a serving instance.
                    source.instance_manager.disown(instance_id)
                    source.meta_context.drop_instance(instance_id)
                    source.handle_context_dropped(instance_id)
                self.owners[instance_id] = tenant
                target.instance_manager.adopt(instance)
        if self.rebalance_interval > 0:
            self.simulator.schedule_after(
                self.rebalance_interval,
                EventType.GENERIC,
                payload={"server_action": "tenant_rebalance"},
                callback=self._on_rebalance,
            )

    def _demand_live(self, spec: TenantSpec) -> TenantDemand:
        """*spec*'s demand at its system's live arrival-rate estimate."""
        return spec.demand(self.systems[spec.name].estimate_arrival_rate())

    def _rebalancable_instances(self) -> List[Instance]:
        """Stable held instances plus usable instances nobody owns yet."""
        gathered = self.partitioner._gather_stable()
        seen = {inst.instance_id for inst in gathered}
        for instance in self.provider.usable_instances():
            if instance.instance_id not in seen and instance.instance_id not in self.owners:
                seen.add(instance.instance_id)
                gathered.append(instance)
        return gathered

    # ------------------------------------------------------------------
    # Fleet-wide views
    # ------------------------------------------------------------------
    @property
    def submitted_requests(self) -> int:
        """Requests submitted across every tenant."""
        return sum(system.submitted_requests for system in self.systems.values())

    def unfinished_request_count(self) -> int:
        """Unfinished requests across every tenant (conservation invariant)."""
        return sum(
            system.unfinished_request_count() for system in self.systems.values()
        )

    def aggregate_stats(self) -> ServingStats:
        """Fleet-wide :class:`ServingStats` summing every tenant's counters.

        The aggregate carries no ``tenant`` label, so its ``summary_text``
        has exactly the legacy key set; per-tenant sections live on each
        tenant's own stats.
        """
        total = ServingStats(system_name=self.name, retain_requests=False)
        # Every int/float field is a summable counter except the latency
        # maximum; ``type(...) in`` also skips the bool ``retain_requests``.
        counters = [
            f.name
            for f in fields(total)
            if type(getattr(total, f.name)) in (int, float) and f.name != "_latency_max"
        ]
        completion_log: List[Tuple[float, float]] = []
        for _, system in sorted(self.systems.items()):
            stats = system.stats
            for name in counters:
                setattr(total, name, getattr(total, name) + getattr(stats, name))
            total.reconfigurations.extend(stats.reconfigurations)
            total.autoscale_actions.extend(stats.autoscale_actions)
            total.config_timeline.extend(stats.config_timeline)
            total._latency_max = max(total._latency_max, stats._latency_max)
            completion_log.extend(stats._completion_log)
        total.reconfigurations.sort(key=lambda record: record.time)
        total.autoscale_actions.sort(key=lambda record: record.time)
        total.config_timeline.sort(key=lambda entry: entry[0])
        total._completion_log.extend(sorted(completion_log))
        return total

    def tenant_costs(self, now: float) -> Dict[str, float]:
        """USD spent per tenant up to *now* (``""`` = never-owned instances).

        Each billing record is attributed to the instance's (final) owner;
        zone-disjoint tenants never exchange instances, so their shares are
        exact.
        """
        costs: Dict[str, float] = {spec.name: 0.0 for spec in self.tenants}
        for record in self.provider.cost_tracker.iter_records():
            owner = self.owners.get(record.instance_id, "")
            costs[owner] = costs.get(owner, 0.0) + record.cost(now)
        return costs
