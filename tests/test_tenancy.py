"""Tests for multi-tenant serving on a shared spot fleet.

Six claims are pinned here:

* **Split properties** -- :func:`partition_fleet`'s shares are disjoint,
  cover at most the fleet, honour the starvation floor and per-tenant
  caps, respect zone eligibility, and are deterministic across repeats
  and input orderings.
* **One split per round** -- the coordinator's rebalance is the only
  code that splits the fleet after time zero: a busy instance the split
  gives away leaves its holder's planning view (``excluded``) while its
  pipelines drain, and a later rebalance hands it over.
* **Differential composition** -- a two-tenant run over the mirrored
  four-zone market produces per-tenant digests byte-equal to two solo
  runs of the same tenants on their own zone pairs: tenants compose like
  independent single-tenant systems on the partitioned sub-fleets.
* **Per-tenant conservation** -- ``submitted == completed + unfinished +
  dropped + rejected + shed`` holds for every tenant at random mid-run
  probe points under randomized cloud-fault mixes, and the per-tenant
  counters sum to the fleet-wide aggregate.
* **Ownership after every event** -- ``Dataplane.teardown`` and
  ``Dataplane.reroute`` are tenant-local by construction (each tenant has
  its own dataplane, pipelines and queue); on two contended-zone runs
  (a shared-zone outage, and both tenants on every zone) held sets stay
  disjoint, the owner map names every holder, and each tenant's
  pipelines use only instances it holds, checked after every event.
* **Per-tenant bills** -- an instance's bill is split at its handovers,
  so the tenants' shares follow the ownership history and sum to the
  fleet bill.

The perf harness's ``multi_tenant`` scenario and its ``--check`` guards
are pinned at the bottom (fail / pass / skip), mirroring the plan-guard
suite.
"""

import dataclasses
import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cloud.provider import CloudProvider
from repro.cloud.zone import AvailabilityTrace, OutageWindow, PriceSchedule, ZoneSpec
from repro.core.server import ADAPTATION_INTERVAL
from repro.core.stats import ServingStats
from repro.core.tenancy import (
    STARVATION_FLOOR,
    MultiTenantSystem,
    TenantDemand,
    TenantSpec,
    partition_fleet,
)
from repro.experiments.metrics import LatencyStats
from repro.experiments.policy_bench import result_row
from repro.experiments.runner import ExperimentResult, run_multi_tenant_experiment
from repro.experiments.scenarios import multi_tenant_scenario
from repro.faults.injector import (
    DegradedWindow,
    FaultInjector,
    FaultPlan,
    ZoneFaultModel,
)
from repro.sim.engine import Simulator
from repro.sim.events import EventType
from repro.workload.arrival import GammaArrivals

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# partition_fleet properties (randomized)
# ----------------------------------------------------------------------
def _fleet(rng, zones, size):
    instances = []
    for i in range(size):
        zone = rng.choice(zones)
        instances.append(SimpleNamespace(instance_id=f"{zone}-spot-{i:04d}", zone=zone))
    return instances


def _random_demands(rng, zones, count, with_caps=False):
    demands = []
    for i in range(count):
        tenant_zones = None
        if rng.random() < 0.5:
            tenant_zones = tuple(
                sorted(rng.sample(zones, rng.randint(1, len(zones))))
            )
        demands.append(
            TenantDemand(
                name=f"tenant-{i}",
                priority=rng.uniform(0.5, 3.0),
                arrival_rate=rng.uniform(0.01, 2.0),
                min_instances=rng.randint(0, 2),
                max_instances=rng.randint(1, 4) if with_caps else None,
                zones=tenant_zones,
            )
        )
    return demands


class TestFleetPartitionerProperties:
    ZONES = ["prop-a", "prop-b", "prop-c"]

    @pytest.mark.parametrize("seed", range(6))
    def test_shares_are_disjoint_cover_at_most_the_fleet_and_respect_zones(
        self, seed
    ):
        rng = random.Random(seed)
        instances = _fleet(rng, self.ZONES, rng.randint(0, 12))
        demands = _random_demands(rng, self.ZONES, rng.randint(2, 4))
        shares = partition_fleet(instances, demands)
        by_name = {demand.name: demand for demand in demands}
        by_id = {inst.instance_id: inst for inst in instances}
        assigned = [iid for share in shares.values() for iid in share]
        # Disjoint: no instance appears in two shares.
        assert len(assigned) == len(set(assigned))
        # Coverage: only real instances are handed out.
        assert set(assigned) <= set(by_id)
        # Zone eligibility: a tenant never receives a zone it may not occupy.
        for name, share in shares.items():
            for iid in share:
                assert by_name[name].eligible(by_id[iid])

    @pytest.mark.parametrize("seed", range(6))
    def test_starvation_floor_is_honoured_when_feasible(self, seed):
        rng = random.Random(100 + seed)
        demands = [
            TenantDemand(
                name=f"tenant-{i}",
                priority=rng.uniform(0.5, 3.0),
                arrival_rate=rng.uniform(0.01, 2.0),
                min_instances=rng.randint(0, 2),
            )
            for i in range(rng.randint(2, 4))
        ]
        floors = {
            demand.name: max(demand.min_instances, STARVATION_FLOOR)
            for demand in demands
        }
        # Fleet large enough to feed every floor: nobody may starve.
        size = sum(floors.values()) + rng.randint(0, 4)
        instances = _fleet(rng, self.ZONES, size)
        shares = partition_fleet(instances, demands)
        for demand in demands:
            assert len(shares[demand.name]) >= floors[demand.name]

    @pytest.mark.parametrize("seed", range(6))
    def test_caps_are_respected(self, seed):
        rng = random.Random(200 + seed)
        instances = _fleet(rng, self.ZONES, rng.randint(4, 12))
        demands = _random_demands(rng, self.ZONES, rng.randint(2, 4), with_caps=True)
        shares = partition_fleet(instances, demands)
        for demand in demands:
            assert len(shares[demand.name]) <= demand.max_instances

    @pytest.mark.parametrize("seed", range(6))
    def test_partition_is_deterministic_and_input_order_invariant(self, seed):
        rng = random.Random(300 + seed)
        instances = _fleet(rng, self.ZONES, rng.randint(2, 12))
        demands = _random_demands(rng, self.ZONES, rng.randint(2, 4))
        first = partition_fleet(instances, demands)
        second = partition_fleet(instances, demands)
        assert first == second
        shuffled = list(instances)
        rng.shuffle(shuffled)
        reordered_demands = list(reversed(demands))
        third = partition_fleet(shuffled, reordered_demands)
        assert first == third

    def test_sticky_assignment_keeps_previous_owners(self):
        instances = [
            SimpleNamespace(instance_id=f"z1-spot-{i:04d}", zone="z1")
            for i in range(4)
        ]
        demands = [
            TenantDemand(name="a", priority=1.0, arrival_rate=1.0),
            TenantDemand(name="b", priority=1.0, arrival_rate=1.0),
        ]
        previous = {
            "z1-spot-0000": "a",
            "z1-spot-0001": "a",
            "z1-spot-0002": "b",
            "z1-spot-0003": "b",
        }
        shares = partition_fleet(instances, demands, previous=previous)
        assert set(shares["a"]) == {"z1-spot-0000", "z1-spot-0001"}
        assert set(shares["b"]) == {"z1-spot-0002", "z1-spot-0003"}

    def test_demand_shift_moves_instances_but_keeps_the_rest_sticky(self):
        instances = [
            SimpleNamespace(instance_id=f"z1-spot-{i:04d}", zone="z1")
            for i in range(4)
        ]
        demands = [
            TenantDemand(name="a", priority=1.0, arrival_rate=1.0),
            TenantDemand(name="b", priority=1.0, arrival_rate=9.0),
        ]
        previous = {
            "z1-spot-0000": "a",
            "z1-spot-0001": "a",
            "z1-spot-0002": "b",
            "z1-spot-0003": "b",
        }
        shares = partition_fleet(instances, demands, previous=previous)
        # b's demand grew 9x: it takes three instances, a keeps its floor --
        # and b's previously-owned pair never churns.
        assert set(shares["a"]) == {"z1-spot-0000"}
        assert {"z1-spot-0002", "z1-spot-0003"} <= set(shares["b"])
        assert len(shares["b"]) == 3


# ----------------------------------------------------------------------
# Differential composition: two tenants == two solo runs, byte for byte
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def combined_result():
    scenario = multi_tenant_scenario("OPT-6.7B", duration=600.0)
    return scenario, run_multi_tenant_experiment(scenario, drain_time=120.0)


def _solo_scenario(scenario, tenant_name):
    """The same tenant alone on just its own mirrored zone pair."""
    spec = next(s for s in scenario.tenants if s.name == tenant_name)
    zones = tuple(zone for zone in scenario.zones if zone.name in spec.zones)
    return dataclasses.replace(scenario, tenants=(spec,), zones=zones)


class TestDifferentialComposition:
    @pytest.mark.parametrize("tenant_name", ["latency-tier", "batch-tier"])
    def test_tenant_digest_matches_its_solo_run(self, combined_result, tenant_name):
        scenario, combined = combined_result
        solo = run_multi_tenant_experiment(
            _solo_scenario(scenario, tenant_name), drain_time=120.0
        )
        combined_text = combined.tenants[tenant_name].stats.summary_text()
        solo_text = solo.tenants[tenant_name].stats.summary_text()
        assert combined_text == solo_text
        # The zone pairs are mirrored and the victim RNG is seeded per zone
        # *name*, so even the billing share reproduces exactly.
        assert combined.tenants[tenant_name].total_cost == pytest.approx(
            solo.tenants[tenant_name].total_cost
        )

    def test_per_tenant_digests_carry_the_tenant_label(self, combined_result):
        _, combined = combined_result
        for name, tenant_result in combined.tenants.items():
            assert f"tenant={name!r}" in tenant_result.stats.summary_text()

    def test_aggregate_digest_has_the_legacy_key_set(self, combined_result):
        """The fleet-wide aggregate stays out of the legacy golden surface."""
        _, combined = combined_result
        aggregate_text = combined.stats.summary_text()
        assert "tenant=" not in aggregate_text
        legacy_keys = set(ServingStats(system_name="x").summary())
        aggregate_keys = set(combined.stats.summary())
        assert aggregate_keys == legacy_keys

    def test_latency_tenant_beats_batch_p99_at_equal_fleet_cost(
        self, combined_result
    ):
        """The headline policy-benchmark row: SLO policy, not fleet, wins."""
        _, combined = combined_result
        latency = combined.tenants["latency-tier"]
        batch = combined.tenants["batch-tier"]
        assert latency.total_cost == pytest.approx(batch.total_cost)
        assert latency.latency.p99 < batch.latency.p99


# ----------------------------------------------------------------------
# Per-tenant conservation under randomized cloud-fault mixes
# ----------------------------------------------------------------------
def _tenant_conservation(system):
    for tenant_system in system.systems.values():
        stats = tenant_system.stats
        assert tenant_system.submitted_requests == (
            stats.completed_count
            + tenant_system.unfinished_request_count()
            + stats.requests_dropped
            + stats.requests_rejected
            + stats.requests_shed
        ), f"conservation violated for tenant {tenant_system.tenant!r}"


def _fleet_conservation(system):
    aggregate = system.aggregate_stats()
    assert system.submitted_requests == (
        aggregate.completed_count
        + system.unfinished_request_count()
        + aggregate.requests_dropped
        + aggregate.requests_rejected
        + aggregate.requests_shed
    )
    # The aggregate really is the sum of the tenant counters.
    assert aggregate.completed_count == sum(
        s.stats.completed_count for s in system.systems.values()
    )
    assert aggregate.requests_shed == sum(
        s.stats.requests_shed for s in system.systems.values()
    )


class TestAggregateStats:
    def test_aggregate_sums_every_tenant_counter(self):
        """Spill counters included: the fleet aggregate misses no counter."""
        scenario = multi_tenant_scenario("OPT-6.7B", duration=600.0)
        simulator = Simulator()
        provider = CloudProvider(simulator, None, zones=scenario.zones)
        system = MultiTenantSystem(simulator, provider, scenario.tenants)
        tenants = [system.systems[name].stats for name in sorted(system.systems)]
        assert len(tenants) == 2
        for scale, stats in enumerate(tenants, start=1):
            stats.bytes_spilled = 100.0 * scale
            stats.bytes_restored = 70.0 * scale
            stats.bytes_abandoned = 30.0 * scale
            stats.restores = 2 * scale
            stats.spill_fallbacks = scale
            stats.requests_shed = 5 * scale
            stats._latency_max = 10.0 * scale
        aggregate = system.aggregate_stats()
        assert aggregate.bytes_spilled == 300.0
        assert aggregate.bytes_restored == 210.0
        assert aggregate.bytes_abandoned == 90.0
        assert aggregate.restores == 6
        assert aggregate.spill_fallbacks == 3
        assert aggregate.requests_shed == 15
        assert aggregate._latency_max == 20.0

    def test_every_report_carries_each_counter_under_its_own_name(self):
        """Each counter holds a value no other counter holds, so a report
        that reads one counter under another's name fails."""
        scenario = multi_tenant_scenario("OPT-6.7B", duration=600.0)
        simulator = Simulator()
        provider = CloudProvider(simulator, None, zones=scenario.zones)
        system = MultiTenantSystem(simulator, provider, scenario.tenants)
        names = list(ServingStats().counters())
        for scale, tenant in enumerate(sorted(system.systems), start=1):
            stats = system.systems[tenant].stats
            for rank, name in enumerate(names, start=1):
                setattr(stats, name, rank * 10**scale)
            stats._completed_count = 7 * scale
            stats._latency_sum = 0.5 * scale
        expected = {name: 110 * rank for rank, name in enumerate(names, start=1)}
        aggregate = system.aggregate_stats()
        assert list(aggregate.counters().items()) == list(expected.items())
        summary = aggregate.extended_summary()
        assert {name: summary[name] for name in names} == expected
        assert (summary["completed"], summary["latency_sum"]) == (21, 1.5)
        result = ExperimentResult(
            system_name="fleet",
            model_name="OPT-6.7B",
            duration=600.0,
            stats=aggregate,
            latency=LatencyStats.from_latencies([]),
            submitted_requests=30,
            completed_requests=21,
            total_cost=1.0,
            tokens_generated=aggregate.tokens_generated,
        )
        row = result_row("multi-tenant", "fixed-fleet", result)
        keys = list(row)
        start = keys.index("requests_unserved") + 1
        assert keys[start : start + len(names)] == names
        assert {name: row[name] for name in names} == expected


class TestEventAddressing:
    def test_self_scheduled_events_are_not_broadcast(self):
        """Each tenant's own events call back only that tenant.

        Only WORKLOAD_CHECK and the cloud events may reach every tenant
        through ``Simulator.on``; arrivals, completions and reconfigurations
        carry the scheduling system's handler as their callback.
        """
        scenario = multi_tenant_scenario("OPT-6.7B", duration=600.0)
        simulator = Simulator()
        provider = CloudProvider(simulator, None, zones=scenario.zones)
        registered = []
        register = simulator.on

        def recording_on(event_type, handler):
            registered.append(event_type)
            register(event_type, handler)

        simulator.on = recording_on
        system = MultiTenantSystem(simulator, provider, scenario.tenants)
        assert len(system.systems) == 2
        assert EventType.WORKLOAD_CHECK in registered
        assert not {
            EventType.REQUEST_ARRIVAL,
            EventType.BATCH_COMPLETION,
            EventType.RECONFIGURATION,
            EventType.MIGRATION_COMPLETE,
        } & set(registered)


class TestPerTenantConservationUnderFaults:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conservation_holds_at_random_probe_points(self, seed):
        rng = random.Random(seed)
        plan = FaultPlan(
            seed=seed,
            default_model=ZoneFaultModel(
                refusal_prob=rng.uniform(0.0, 0.5),
                launch_failure_prob=rng.uniform(0.0, 0.3),
                straggler_prob=rng.uniform(0.0, 0.5),
                straggler_multiplier=1.0 + 3.0 * rng.random(),
                early_preemption_prob=rng.uniform(0.0, 1.0),
                min_grace_fraction=0.2,
            ),
            degraded_windows=(
                DegradedWindow(
                    start=rng.uniform(50.0, 200.0),
                    end=rng.uniform(250.0, 550.0),
                    bandwidth_factor=rng.uniform(1.0, 12.0),
                ),
            ),
        )
        base = multi_tenant_scenario("OPT-6.7B", duration=600.0, seed=seed)
        # Autoscaling tenants keep the faultable allocation path hot.
        tenants = tuple(
            dataclasses.replace(spec, autoscale_policy="cost-aware")
            for spec in base.tenants
        )
        simulator = Simulator()
        provider = CloudProvider(
            simulator,
            None,
            zones=base.zones,
            allow_spot_requests=True,
            fault_injector=FaultInjector(plan),
        )
        system = MultiTenantSystem(simulator, provider, tenants)
        system.submit_workloads(base.duration)
        system.initialize()

        probes = sorted(rng.uniform(1.0, 720.0) for _ in range(10)) + [720.0]
        for until in probes:
            simulator.run(until=until)
            _tenant_conservation(system)
            _fleet_conservation(system)


class TestPerTenantFaultCounts:
    def test_faults_are_counted_for_the_tenant_they_hit(self, applied_launch_failures):
        # Only the latency tier allocates, and only its zones fault; the
        # batch tier shares the one injector but never requests capacity.
        base = multi_tenant_scenario("OPT-6.7B", duration=600.0)
        zones = tuple(dataclasses.replace(zone, capacity=None) for zone in base.zones)
        tenants = tuple(
            dataclasses.replace(spec, autoscale_policy="cost-aware")
            if spec.name == "latency-tier"
            else spec
            for spec in base.tenants
        )
        faulty = ZoneFaultModel(refusal_prob=0.5, launch_failure_prob=0.5)
        injector = FaultInjector(
            FaultPlan(zone_models=(("lat-east", faulty), ("lat-west", faulty)))
        )
        simulator = Simulator()
        provider = CloudProvider(
            simulator,
            None,
            zones=zones,
            allow_spot_requests=True,
            fault_injector=injector,
        )
        system = MultiTenantSystem(simulator, provider, tenants)
        system.submit_workloads(base.duration)
        system.initialize()
        simulator.run(until=720.0)

        latency = system.systems["latency-tier"].stats
        batch = system.systems["batch-tier"].stats
        totals = {
            "allocation_refusals": injector.allocation_refusals,
            "launch_failures": len(applied_launch_failures),
        }
        for key, total in totals.items():
            assert total > 0, key
            assert getattr(latency, key) == total, key
            assert getattr(batch, key) == 0, key
            assert getattr(system.aggregate_stats(), key) == total, key


# ----------------------------------------------------------------------
# Contended zones: ownership after every event, one split per round, bills
# ----------------------------------------------------------------------
_DATAPLANE_EVENTS = (EventType.REQUEST_ARRIVAL, EventType.BATCH_COMPLETION)


class _OwnershipWatch:
    """Checks tenant ownership after every event and records its history.

    Its handlers are registered on every event type after the systems'
    own, so each check sees the state an event left behind.
    """

    def __init__(self, system):
        self.system = system
        self.simulator = system.simulator
        #: Events checked that can change ownership: every type but
        #: ``REQUEST_ARRIVAL`` and ``BATCH_COMPLETION``.  Arrivals and
        #: completions never change ownership, and one of their events can
        #: carry many of them, so their count says nothing about how much
        #: the checks covered.
        self.control_events = 0
        self.violations = []
        #: ``(time, instance id, owner)`` each time an owner-map entry changes.
        self.history = [(0.0, iid, owner) for iid, owner in sorted(system.owners.items())]
        #: ``(time, tenant, instance id, used by its pipelines, in its
        #: stable view)`` for every excluded instance after each rebalance.
        self.exclusions = []
        self._owners = dict(system.owners)
        for event_type in EventType:
            self.simulator.on(event_type, self.check)

    def check(self, event):
        self.control_events += event.event_type not in _DATAPLANE_EVENTS
        now = self.simulator.now
        owners = self.system.owners
        for iid, owner in owners.items():
            if self._owners.get(iid) != owner:
                self.history.append((now, iid, owner))
        self._owners = dict(owners)
        seen = {}
        for name, tenant in self.system.systems.items():
            held = set(tenant.instance_manager._held)
            for iid in held:
                if iid in seen:
                    self.violations.append(f"t={now}: {iid} held by {seen[iid]} and {name}")
                seen[iid] = name
                if owners.get(iid) != name:
                    self.violations.append(f"t={now}: {name} holds {iid} owned by {owners.get(iid)!r}")
            stray = tenant.dataplane.instance_ids() - held
            if stray:
                self.violations.append(f"t={now}: {name}'s pipelines use unheld {sorted(stray)}")
        if event.event_type is EventType.GENERIC and (event.payload or {}).get(
            "server_action"
        ) == "tenant_rebalance":
            for name, tenant in self.system.systems.items():
                manager = tenant.instance_manager
                stable = {inst.instance_id for inst in manager.stable_instances()}
                used = tenant.dataplane.instance_ids()
                for iid in sorted(manager.excluded or ()):
                    self.exclusions.append((now, name, iid, iid in used, iid in stable))

    def owner_at(self, instance_id, time):
        """Owner of *instance_id* at *time* (its first owner before that)."""
        entries = [(t, owner) for t, iid, owner in self.history if iid == instance_id]
        owner = entries[0][1]
        for t, later in entries:
            if t <= time:
                owner = later
        return owner


def _watched_run(tenants, zones, duration, until, **provider_kwargs):
    simulator = Simulator()
    provider = CloudProvider(simulator, None, zones=zones, **provider_kwargs)
    system = MultiTenantSystem(simulator, provider, tenants)
    system.submit_workloads(duration)
    system.initialize()
    watch = _OwnershipWatch(system)
    simulator.run(until=until)
    return watch


def _shared_outage_market(duration):
    """Three zones shared by both tenants; the big cheap one goes dark."""
    outage = OutageWindow(
        start=0.4 * duration, duration=0.3 * duration, warning=30.0
    )
    zone_a = ZoneSpec(
        name="sh-a",
        trace=AvailabilityTrace(
            name="sh-a-mt", initial_instances=3, events=[], duration=duration
        ),
        spot_pricing=PriceSchedule.flat(1.2),
        outages=(outage,),
    )
    zone_b = ZoneSpec(
        name="sh-b",
        trace=AvailabilityTrace(
            name="sh-b-mt", initial_instances=2, events=[], duration=duration
        ),
        spot_pricing=PriceSchedule.flat(1.9),
    )
    zone_c = ZoneSpec(
        name="sh-c",
        trace=AvailabilityTrace(
            name="sh-c-mt", initial_instances=1, events=[], duration=duration
        ),
        spot_pricing=PriceSchedule.flat(2.6),
    )
    return (zone_a, zone_b, zone_c)


@pytest.fixture(scope="module")
def shared_zone_run():
    """Two autoscaling tenants on three shared zones; one zone goes dark."""
    duration = 600.0
    tenants = (
        TenantSpec(
            name="shared-a",
            priority=1.5,
            arrival_rate=0.25,
            seed=11,
            autoscale_policy="cost-aware",
        ),
        TenantSpec(
            name="shared-b",
            priority=1.0,
            arrival_rate=0.25,
            seed=12,
            autoscale_policy="cost-aware",
        ),
    )
    return _watched_run(
        tenants,
        _shared_outage_market(duration),
        duration,
        duration + 150.0,
        allow_spot_requests=True,
    )


@pytest.fixture(scope="module")
def every_zone_run():
    """``multi_tenant_scenario`` with both tenants allowed on every zone."""
    base = multi_tenant_scenario("OPT-6.7B", duration=300.0)
    tenants = tuple(dataclasses.replace(spec, zones=None) for spec in base.tenants)
    return _watched_run(tenants, base.zones, base.duration, base.duration + 100.0)


class TestSharedZoneEvacuation:
    """No cross-tenant pipeline leakage on contended zones.

    ``Dataplane.teardown`` and ``Dataplane.reroute`` are tenant-local by
    construction: each tenant has its own dataplane, pipelines and queue,
    so a tenant can only ever tear down and re-queue its *own* work.  The
    genuinely shared surfaces are the provider-wide fleet scans (zone
    views, launching counts, initial-fleet adoption), which the ownership
    predicates filter, and the rebalance handovers.  These runs pin the
    end-to-end consequence after every event: held sets are disjoint, the
    owner map names every holder, and each tenant's pipelines use only
    instances it holds.
    """

    def test_colocated_tenants_evacuate_independently(self, shared_zone_run):
        system = shared_zone_run.system
        _tenant_conservation(system)
        _fleet_conservation(system)
        system_a = system.systems["shared-a"]
        system_b = system.systems["shared-b"]
        # Both tenants observed the shared outage on their own stats...
        assert system_a.stats.zone_outages == 1
        assert system_b.stats.zone_outages == 1
        # ...and requests were evacuated, never lost.
        assert system_a.stats.requests_dropped == 0
        assert system_b.stats.requests_dropped == 0

    @pytest.mark.parametrize("run", ["shared_zone_run", "every_zone_run"])
    def test_ownership_holds_after_every_event(self, run, request):
        watch = request.getfixturevalue(run)
        # 133 on the shared-zone run and 55 on the every-zone run.
        assert watch.control_events > 50
        assert not watch.violations, watch.violations[:5]
        # Both tenants served: the checks ran on live fleets.
        for tenant in watch.system.systems.values():
            assert tenant.stats.completed_count > 0


class TestOneSplitPerRound:
    def test_rebalance_hides_a_busy_instance_then_hands_it_over(self, every_zone_run):
        """The split gives away a serving instance: drained, then moved."""
        watch = every_zone_run
        handed_over = []
        for time, holder, iid, used, in_stable in watch.exclusions:
            # Hidden from its holder's planning view while still serving.
            if not used or in_stable:
                continue
            later = [
                (t, owner) for t, moved, owner in watch.history
                if moved == iid and t > time
            ]
            if later and later[0][1] != holder:
                handed_over.append((time, holder, iid, later[0]))
        assert handed_over, watch.exclusions
        for time, _, iid, (moved_at, owner) in handed_over:
            # The move lands on a later rebalance round.
            assert moved_at > time
            assert moved_at % ADAPTATION_INTERVAL == 0
            assert owner in watch.system.systems
        _tenant_conservation(watch.system)
        _fleet_conservation(watch.system)


class TestPerTenantBills:
    def test_a_handed_over_instance_is_billed_to_both_tenants(self):
        """One flat-priced instance changes owner at a known instant."""
        # 3.6 $/h is $0.001 per second, so each bill reads in seconds.
        zone = ZoneSpec(
            name="bill",
            trace=AvailabilityTrace(
                name="bill-mt", initial_instances=3, events=[], duration=200.0
            ),
            spot_pricing=PriceSchedule.flat(3.6),
        )
        simulator = Simulator()
        provider = CloudProvider(simulator, None, zones=(zone,))
        # "a" wins the time-zero split on its nominal rate but never sees a
        # request; "b"'s live arrivals win the contended third instance.
        tenants = (
            TenantSpec(name="a", arrival_rate=2.0),
            TenantSpec(name="b", arrival_rate=0.1),
        )
        system = MultiTenantSystem(simulator, provider, tenants)
        system.systems["b"].submit_arrival_process(
            GammaArrivals(2.0, cv=1.0, seed=0), 200.0
        )
        system.initialize()
        watch = _OwnershipWatch(system)
        simulator.run(until=200.0)

        assert not watch.violations
        moves = [entry for entry in watch.history if entry[0] > 0.0]
        assert len(moves) == 1
        handover, _, owner = moves[0]
        assert owner == "b"
        # The first rebalance hides the busy instance from "a"; the second
        # hands it over once "a" drained its pipelines off it.
        assert handover == 2 * ADAPTATION_INTERVAL
        costs = system.tenant_costs(simulator.now)
        assert costs["a"] == pytest.approx(0.001 * (200.0 + handover))
        assert costs["b"] == pytest.approx(0.001 * (200.0 + 200.0 - handover))
        assert sum(costs.values()) == pytest.approx(
            provider.cost_tracker.total_cost(simulator.now)
        )

    def test_shared_zone_bills_follow_the_ownership_history(self, shared_zone_run):
        watch = shared_zone_run
        now = watch.simulator.now
        tracker = watch.system.provider.cost_tracker
        moved = {iid for t, iid, _ in watch.history if t > 0.0} & {
            record.instance_id for record in tracker.iter_records()
        }
        # Instances really changed hands mid-bill on this run.
        assert any(
            len({owner for _, iid, owner in watch.history if iid == moved_id}) > 1
            for moved_id in moved
        )
        expected = {name: 0.0 for name in watch.system.systems}
        for record in tracker.iter_records():
            assert not record.schedule.changes  # every zone here bills flat
            price = record.schedule.base_price
            end = record.end if record.end is not None else now
            changes = sorted(
                t for t, iid, _ in watch.history
                if iid == record.instance_id and record.start < t < end
            )
            bounds = [record.start, *changes, end]
            for left, right in zip(bounds, bounds[1:]):
                owner = watch.owner_at(record.instance_id, left)
                expected[owner] += (right - left) / 3600.0 * price
        costs = watch.system.tenant_costs(now)
        assert set(costs) == set(expected)
        for name, cost in expected.items():
            assert costs[name] == pytest.approx(cost)
        assert sum(costs.values()) == pytest.approx(tracker.total_cost(now))


# ----------------------------------------------------------------------
# Tenant label on the stats digest
# ----------------------------------------------------------------------
class TestTenantLabel:
    def test_unlabelled_stats_have_no_tenant_key(self):
        stats = ServingStats(system_name="legacy")
        assert "tenant" not in stats.summary()
        assert "tenant=" not in stats.summary_text()

    def test_labelled_stats_carry_the_tenant_key(self):
        stats = ServingStats(system_name="mt", tenant="latency-tier")
        assert stats.summary()["tenant"] == "latency-tier"
        assert "tenant='latency-tier'" in stats.summary_text()


# ----------------------------------------------------------------------
# TenantSpec rejects impossible values at construction
# ----------------------------------------------------------------------
class TestTenantSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"name": ""}, id="empty-name"),
            pytest.param({"priority": 0.0}, id="zero-priority"),
            pytest.param({"priority": -1.0}, id="negative-priority"),
            pytest.param({"priority": float("nan")}, id="nan-priority"),
            pytest.param({"priority": float("inf")}, id="infinite-priority"),
            pytest.param({"min_instances": -1}, id="negative-min-instances"),
            pytest.param(
                {"min_instances": 3, "max_instances": 2}, id="max-below-min-instances"
            ),
            pytest.param({"zones": ()}, id="no-zones"),
            pytest.param({"arrival_rate": 0.0}, id="zero-arrival-rate"),
            pytest.param({"arrival_rate": -0.5}, id="negative-arrival-rate"),
            pytest.param({"cv": 0.0}, id="zero-cv"),
            pytest.param({"cv": -2.0}, id="negative-cv"),
            pytest.param({"arrival_rate": float("inf")}, id="infinite-arrival-rate"),
            pytest.param({"arrival_rate": float("nan")}, id="nan-arrival-rate"),
            pytest.param({"cv": float("inf")}, id="infinite-cv"),
            pytest.param({"cv": float("nan")}, id="nan-cv"),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TenantSpec(**{"name": "tenant", **kwargs})

    def test_boundary_values_construct(self):
        TenantSpec(
            name="t",
            priority=1e-6,
            min_instances=0,
            max_instances=0,
            zones=("z",),
            arrival_rate=1e-6,
            cv=1e-6,
        )

    @pytest.mark.parametrize("slo_latency", [0.0, float("nan"), float("inf")])
    def test_options_reject_an_impossible_slo(self, slo_latency):
        spec = TenantSpec(name="tenant", slo_latency=slo_latency)
        with pytest.raises(ValueError):
            spec.options()


# ----------------------------------------------------------------------
# Perf-harness integration: the multi_tenant scenario and its --check guards
# ----------------------------------------------------------------------
class TestPerfCheckMultiTenantGuard:
    """run_perf.py --check guards the multi_tenant scenario (fail/pass/skip)."""

    @staticmethod
    def report(round_ms, requests):
        return {
            "adaptation_round_ms": round_ms,
            "sim_requests_per_sec": requests,
            "phases": {},
        }

    def baseline(self, tmp_path, entry):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"scenarios": {"multi_tenant": entry}}))
        return path

    def test_scenario_is_registered(self, run_perf):
        assert "multi_tenant" in run_perf.SCENARIOS

    def test_committed_baseline_guards_the_scenario(self):
        baseline = json.loads(
            (REPO_ROOT / "benchmarks" / "perf" / "baseline.json").read_text()
        )
        entry = baseline["scenarios"]["multi_tenant"]
        assert entry["adaptation_round_ms"] > 0
        assert entry["min_sim_requests_per_sec"] > 0

    def test_ci_matrix_runs_the_scenario(self):
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "--scenario multi_tenant" in workflow

    def test_round_regression_fails_the_check(self, run_perf, tmp_path):
        baseline = self.baseline(
            tmp_path, {"adaptation_round_ms": 4.5, "min_sim_requests_per_sec": 22893}
        )
        reports = {"multi_tenant": self.report(round_ms=20.0, requests=90000.0)}
        assert run_perf.check_regression(reports, baseline, max_regression=2.0) == 1

    def test_requests_floor_regression_fails_the_check(self, run_perf, tmp_path):
        baseline = self.baseline(
            tmp_path, {"adaptation_round_ms": 4.5, "min_sim_requests_per_sec": 22893}
        )
        reports = {"multi_tenant": self.report(round_ms=2.0, requests=10000.0)}
        assert run_perf.check_regression(reports, baseline, max_regression=2.0) == 1

    def test_within_limits_passes(self, run_perf, tmp_path):
        baseline = self.baseline(
            tmp_path, {"adaptation_round_ms": 4.5, "min_sim_requests_per_sec": 22893}
        )
        reports = {"multi_tenant": self.report(round_ms=4.0, requests=90000.0)}
        assert run_perf.check_regression(reports, baseline, max_regression=2.0) == 0

    def test_unlisted_scenario_skips_the_guard(self, run_perf, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"scenarios": {}}))
        reports = {"multi_tenant": self.report(round_ms=999.0, requests=1.0)}
        assert run_perf.check_regression(reports, path, max_regression=2.0) == 0
