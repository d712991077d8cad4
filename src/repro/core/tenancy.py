"""Multi-tenant serving: several model specs sharing one spot fleet.

The paper's adaptation loop assumes a single model spec owns the whole
fleet.  Algorithm 1 plans on the ``N_t`` instances the instance manager
reports, so tenancy only has to decide which instances each tenant's
manager reports.  This module makes that decision in one place, the way
ReaLHF's ``ModelDeviceMapping`` keeps every model's device assignment in
one map: once per adaptation round the coordinator splits the fleet across
tenants (proportional share by estimated demand, priority weighted, with a
starvation floor), and each tenant then runs the existing propose/map/plan
stack against its own share -- the device mapper places heterogeneous
pipeline groups side by side and the migration planner stays
tenant-local.

Three pieces cooperate:

* :class:`TenantSpec` -- one tenant's model, SLO, priority, admission
  budget and arrival workload.
* :func:`partition_fleet` -- the split, a pure function of the fleet, the
  tenants' demand snapshots and the previous owners.
* :class:`MultiTenantSystem` -- the coordinator.  It builds one ordinary
  serving system per tenant on the *shared* simulator and provider, wires
  the ownership predicate and zone set that scope each tenant's instance
  manager -- and with it the tenant's instance events -- to its own slice,
  and applies each round's split: idle instances change owner, busy ones
  leave their holder's planning view until they drain.  Single-tenant
  systems never meet any of this, so the golden digests cannot move.

Per-tenant request conservation (``submitted == completed + unfinished +
dropped + rejected + shed`` for every tenant, summing to the fleet-wide
counters) is pinned by ``tests/test_tenancy.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cloud.instance import Instance
from ..cloud.provider import CloudProvider
from ..llm.spec import get_model
from ..sim.engine import Simulator
from ..sim.events import Event, EventType
from ..workload.arrival import ArrivalProcess, GammaArrivals, check_positive_finite
from .server import ADAPTATION_INTERVAL, ServingSystemBase, SpotServeOptions, SpotServeSystem
from .stats import ServingStats


#: Instances every active tenant is guaranteed when the fleet allows it.
STARVATION_FLOOR = 1


@dataclass(frozen=True)
class TenantDemand:
    """One tenant's demand snapshot, as :func:`partition_fleet` sees it."""

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

    #: Unique tenant name; becomes the ``tenant`` label on its serving
    #: system, stats and billing share.
    name: str
    #: Model catalog name served for this tenant.
    model_name: str = "OPT-6.7B"
    #: Fleet-split priority weight (higher wins more of the contended fleet).
    priority: float = 1.0
    #: Latency SLO forwarded to the tenant's optimizer/admission policy.
    slo_latency: Optional[float] = None
    #: Admission-policy name (see :mod:`repro.core.admission`); ``None``
    #: disables overload control for this tenant.
    admission: Optional[str] = None
    #: Admission-policy kwargs as ``((key, value), ...)`` pairs.
    admission_params: Optional[Tuple[Tuple[str, object], ...]] = None
    #: Starvation floor the fleet split must honour when feasible.
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

    def __post_init__(self) -> None:
        if not self.name:
            # "" is the single-tenant label: a tenant named "" would lose its
            # stats digest label and share tenant_costs' never-owned bucket.
            raise ValueError("tenant name must be non-empty")
        check_positive_finite("priority", self.priority)
        if self.min_instances < 0:
            raise ValueError(f"min_instances must be >= 0, got {self.min_instances}")
        if self.max_instances is not None and self.max_instances < self.min_instances:
            raise ValueError(
                f"max_instances must be >= min_instances, got "
                f"{self.max_instances} < {self.min_instances}"
            )
        if self.zones is not None and not self.zones:
            raise ValueError("zones must name at least one zone (None means every zone)")
        check_positive_finite("arrival_rate", self.arrival_rate)
        check_positive_finite("cv", self.cv)

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


def partition_fleet(
    instances: Sequence[Instance],
    demands: Sequence[TenantDemand],
    previous: Optional[Dict[str, str]] = None,
) -> Dict[str, Tuple[str, ...]]:
    """Split *instances* across *demands*; returns name -> instance ids.

    The split is a priority-weighted proportional share of each tenant's
    estimated demand (highest-averages / D'Hondt apportionment), after every
    tenant received its starvation floor (:data:`STARVATION_FLOOR`, or the
    tenant's ``min_instances`` when higher).  Shares are disjoint and cover
    at most the input fleet (instances no eligible tenant can take stay
    unassigned).  Floors are honoured before any proportional top-up, so no
    tenant starves while the fleet can feed it.  *previous* (instance id ->
    tenant name) makes the assignment sticky: an instance keeps its owner
    whenever the new counts and eligibility allow, minimising migration
    churn.  The result is a pure function of its sorted inputs -- repeat
    runs are byte-identical, which the property suite pins.
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
    targets = _target_counts(len(ordered), by_name, names, caps)

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
            max(by_name[name].min_instances, STARVATION_FLOOR), targets[name]
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
            max(by_name[name].min_instances, STARVATION_FLOOR),
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


class MultiTenantSystem:
    """Coordinator running one serving system per tenant on a shared fleet.

    Each tenant gets an ordinary :class:`SpotServeSystem` on the *same*
    simulator and cloud provider; this class wires the tenancy hooks that
    keep them from treading on each other:

    * each arrival and batch-completion event calls back only the system
      that scheduled it, so a tenant's requests need no label of their
      own;
    * each tenant's instance manager gets an ownership predicate over the
      coordinator's owner map (so instance-scoped events -- preemptions,
      acquisitions, launch failures -- only reach the owning tenant) and
      the tenant's zones, and claims granted instances into the owner map;
    * a rebalance round, every :data:`~repro.core.server.ADAPTATION_INTERVAL`
      seconds and just before the tenants' own rounds, splits the fleet
      once for every tenant (:func:`partition_fleet`): it moves *idle*
      instances to the tenant the split gives them, and hides the *busy*
      ones it gave away from their holder's planning view
      (``InstanceManager.excluded``) until they drain.

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
        #: Live ownership map: instance id -> tenant name.
        self.owners: Dict[str, str] = {}
        #: Instance id -> ``(time, previous owner)`` per rebalance handover,
        #: in time order; :meth:`tenant_costs` splits each bill there.
        self.handovers: Dict[str, List[Tuple[float, str]]] = {}
        self.systems: Dict[str, ServingSystemBase] = {}
        for spec in self.tenants:
            system = SpotServeSystem(
                simulator,
                provider,
                get_model(spec.model_name),
                options=spec.options(),
                initial_arrival_rate=spec.arrival_rate,
                tenant=spec.name,
            )
            manager = system.instance_manager
            manager.allowed_zones = frozenset(spec.zones) if spec.zones is not None else None
            manager.ownership_filter = self._owner_predicate(spec.name)
            manager.granted_hook = self._claim_hook(spec.name)
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

        The rebalance and every tenant's round share one period
        (:data:`~repro.core.server.ADAPTATION_INTERVAL`), and the rebalance
        is armed *before* the tenants initialise, so it precedes each
        tenant's same-instant round (insertion order breaks simulator ties)
        and every round plans on a fresh split.
        """
        shares = partition_fleet(
            self.provider.usable_instances(),
            [spec.demand() for spec in self.tenants],
        )
        for tenant, instance_ids in shares.items():
            for instance_id in instance_ids:
                self.owners[instance_id] = tenant
        self._arm_rebalance()
        for spec in self.tenants:
            self.systems[spec.name].initialize()
        self._initialized = True

    def run(self, until: float) -> Dict[str, ServingStats]:
        """Initialise (if needed), run the shared simulation, return stats."""
        if not self._initialized:
            self.initialize()
        self.simulator.run(until=until)
        return {name: system.stats for name, system in self.systems.items()}

    # ------------------------------------------------------------------
    # Rebalance round
    # ------------------------------------------------------------------
    def _arm_rebalance(self) -> None:
        """Schedule the next rebalance round one adaptation interval from now."""
        self.simulator.schedule_after(
            ADAPTATION_INTERVAL,
            EventType.GENERIC,
            payload={"server_action": "tenant_rebalance"},
            callback=self._on_rebalance,
        )

    def _on_rebalance(self, event: Event) -> None:
        """Split the fleet once for every tenant's coming round.

        Idle instances move to the tenant the split gives them.  A busy one
        stays with its holder (never steal a serving instance) but joins
        the holder's ``excluded`` view, as does any instance the split gave
        nobody, so each tenant's adaptation round plans only on its share
        and drains the rest off its pipelines by the next rebalance.
        """
        for system in self.systems.values():
            system.instance_manager.excluded = None
        demands = [
            spec.demand(self.systems[spec.name].estimate_arrival_rate())
            for spec in self.tenants
        ]
        instances = self._rebalancable_instances()
        shares = partition_fleet(instances, demands, previous=self.owners)
        by_id = {inst.instance_id: inst for inst in instances}
        now = self.simulator.now
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
                    self.handovers.setdefault(instance_id, []).append((now, current))
                self.owners[instance_id] = tenant
                target.instance_manager.adopt(instance)
        for tenant, system in self.systems.items():
            share = set(shares[tenant])
            manager = system.instance_manager
            excluded = frozenset(
                inst.instance_id
                for inst in manager.stable_instances()
                if inst.instance_id not in share
            )
            manager.excluded = excluded or None
        self._arm_rebalance()

    def _rebalancable_instances(self) -> List[Instance]:
        """Stable held instances plus usable instances nobody owns yet.

        Held sets are disjoint and every held instance is owned, so no
        instance is gathered twice.
        """
        gathered = [
            instance
            for system in self.systems.values()
            for instance in system.instance_manager.stable_instances()
        ]
        gathered.extend(
            instance
            for instance in self.provider.usable_instances()
            if instance.instance_id not in self.owners
        )
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
        # Every declared counter and the two streaming sums add up; the
        # latency maximum takes the max below.
        counters = [*total.counters(), "_completed_count", "_latency_sum"]
        timeline: List[Tuple[float, float]] = []
        for _, system in sorted(self.systems.items()):
            stats = system.stats
            for name in counters:
                setattr(total, name, getattr(total, name) + getattr(stats, name))
            total.reconfigurations.extend(stats.reconfigurations)
            total.autoscale_actions.extend(stats.autoscale_actions)
            total.config_timeline.extend(stats.config_timeline)
            total._latency_max = max(total._latency_max, stats._latency_max)
            timeline.extend(stats.request_timeline())
        total.reconfigurations.sort(key=lambda record: record.time)
        total.autoscale_actions.sort(key=lambda record: record.time)
        total.config_timeline.sort(key=lambda entry: entry[0])
        timeline.sort()
        total._arrivals.extend(arrival for arrival, _ in timeline)
        total._latencies.extend(latency for _, latency in timeline)
        return total

    def tenant_costs(self, now: float) -> Dict[str, float]:
        """USD spent per tenant up to *now* (``""`` = never-owned instances).

        Each billing record is split at its instance's handovers: every
        stretch goes to the tenant that owned the instance then, and the
        stretch before the first handover to its first owner.  The shares
        sum to the fleet bill.
        """
        costs: Dict[str, float] = {spec.name: 0.0 for spec in self.tenants}
        for record in self.provider.cost_tracker.iter_records():
            owner = self.owners.get(record.instance_id, "")
            end = record.end if record.end is not None else now
            start = record.start
            for time, previous in self.handovers.get(record.instance_id, ()):
                time = min(time, end)
                costs[previous] += record.cost_between(start, time)
                start = time
            costs[owner] = costs.get(owner, 0.0) + record.cost_between(start, end)
        return costs
