"""Tests for multi-tenant serving on a shared spot fleet.

Five claims are pinned here:

* **Digest neutrality** -- installing a :class:`FleetPartitioner` on a
  single-tenant run leaves the two frozen golden digests byte-identical,
  and the test counts the per-round consultations so the claim is not
  vacuous (the hook really ran); a partitioner that returns a *proper
  subset* demonstrably shrinks the fleet the control stack plans on.
* **Partitioner properties** -- shares are disjoint, cover at most the
  fleet, honour the starvation floor and per-tenant caps, respect zone
  eligibility, and are deterministic across repeats and input orderings.
* **Differential composition** -- a two-tenant run over the mirrored
  four-zone market produces per-tenant digests byte-equal to two solo
  runs of the same tenants on their own zone pairs: tenants compose like
  independent single-tenant systems on the partitioned sub-fleets.
* **Per-tenant conservation** -- ``submitted == completed + unfinished +
  dropped + rejected + shed`` holds for every tenant at random mid-run
  probe points under randomized cloud-fault mixes, and the per-tenant
  counters sum to the fleet-wide aggregate.
* **No cross-tenant teardown** -- ``Dataplane.teardown`` and
  ``Dataplane.reroute`` are tenant-local by construction (each tenant has
  its own dataplane, pipelines and queue); the
  shared-zone outage regression pins that two tenants co-located on the
  same zones evacuate independently with disjoint held sets.

The perf harness's ``multi_tenant`` scenario and its ``--check`` guards
are pinned at the bottom (fail / pass / skip), mirroring the plan-guard
suite.
"""

import dataclasses
import hashlib
import importlib.util
import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cloud.provider import CloudProvider
from repro.cloud.zone import AvailabilityTrace, OutageWindow, PriceSchedule, ZoneSpec
from repro.core.server import SpotServeOptions, SpotServeSystem
from repro.core.stats import ServingStats
from repro.core.tenancy import (
    FleetPartitioner,
    MultiTenantSystem,
    TenantDemand,
    TenantSpec,
)
from repro.experiments.runner import (
    run_multi_tenant_experiment,
    run_serving_experiment,
)
from repro.experiments.scenarios import (
    multi_tenant_scenario,
    multi_zone_fluctuating_scenario,
    overload_market,
    stable_workload_scenario,
)
from repro.faults.injector import (
    DegradedWindow,
    FaultInjector,
    FaultPlan,
    ZoneFaultModel,
)
from repro.llm.spec import get_model
from repro.sim.engine import Simulator
from repro.sim.events import EventType
from repro.workload.arrival import GammaArrivals

REPO_ROOT = Path(__file__).resolve().parents[1]

# The frozen golden digests (see tests/test_streaming_equivalence.py): the
# tenancy hooks must not move them while no multi-tenant setup is active.
SINGLE_ZONE_SHA256 = "13bd9e142347b849dcba2c5f52829a5ca9c7638ccb40c83512c45d80ce4d64b5"
MULTI_ZONE_SHA256 = "33c8a35b9b2764488dda4379defb50adea6283cafdcfed7618b22167ecc8502c"


# ----------------------------------------------------------------------
# FleetPartitioner properties (randomized)
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
        shares = FleetPartitioner().partition(instances, demands)
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
        partitioner = FleetPartitioner(starvation_floor=1)
        floors = {
            demand.name: max(demand.min_instances, partitioner.starvation_floor)
            for demand in demands
        }
        # Fleet large enough to feed every floor: nobody may starve.
        size = sum(floors.values()) + rng.randint(0, 4)
        instances = _fleet(rng, self.ZONES, size)
        shares = partitioner.partition(instances, demands)
        for demand in demands:
            assert len(shares[demand.name]) >= floors[demand.name]

    @pytest.mark.parametrize("seed", range(6))
    def test_caps_are_respected(self, seed):
        rng = random.Random(200 + seed)
        instances = _fleet(rng, self.ZONES, rng.randint(4, 12))
        demands = _random_demands(rng, self.ZONES, rng.randint(2, 4), with_caps=True)
        shares = FleetPartitioner().partition(instances, demands)
        for demand in demands:
            assert len(shares[demand.name]) <= demand.max_instances

    @pytest.mark.parametrize("seed", range(6))
    def test_partition_is_deterministic_and_input_order_invariant(self, seed):
        rng = random.Random(300 + seed)
        instances = _fleet(rng, self.ZONES, rng.randint(2, 12))
        demands = _random_demands(rng, self.ZONES, rng.randint(2, 4))
        first = FleetPartitioner().partition(instances, demands)
        second = FleetPartitioner().partition(instances, demands)
        assert first == second
        shuffled = list(instances)
        rng.shuffle(shuffled)
        reordered_demands = list(reversed(demands))
        third = FleetPartitioner().partition(shuffled, reordered_demands)
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
        shares = FleetPartitioner().partition(instances, demands, previous=previous)
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
        shares = FleetPartitioner().partition(instances, demands, previous=previous)
        # b's demand grew 9x: it takes three instances, a keeps its floor --
        # and b's previously-owned pair never churns.
        assert set(shares["a"]) == {"z1-spot-0000"}
        assert {"z1-spot-0002", "z1-spot-0003"} <= set(shares["b"])
        assert len(shares["b"]) == 3


# ----------------------------------------------------------------------
# Digest neutrality: a partitioner is installed, consulted, and changes
# nothing on a single-tenant run (the non-vacuous hook guarantee)
# ----------------------------------------------------------------------
class _CountingPartitioner(FleetPartitioner):
    """Counts per-round consultations so the neutrality claim is not vacuous."""

    def __init__(self):
        super().__init__()
        self.share_calls = 0
        self.share_sizes = []

    def share_for(self, system):
        self.share_calls += 1
        share = super().share_for(system)
        self.share_sizes.append(len(share))
        return share


class _DropOnePartitioner(FleetPartitioner):
    """Returns a proper subset: the control stack must plan on less fleet."""

    def __init__(self):
        super().__init__()
        self.full_sizes = []
        self.dropped = None

    def share_for(self, system):
        share = super().share_for(system)
        self.full_sizes.append(len(share))
        if len(share) > 1:
            ordered = sorted(share)
            self.dropped = ordered[-1]
            return frozenset(ordered[:-1])
        return share


class TestDigestNeutrality:
    def test_single_zone_golden_with_partitioner_installed(self):
        partitioner = _CountingPartitioner()
        scenario = stable_workload_scenario("OPT-6.7B", "AS", duration=400.0)
        options = scenario.options()
        options.fleet_partitioner = partitioner
        result = run_serving_experiment(
            SpotServeSystem,
            scenario.model_name,
            scenario.trace,
            scenario.arrival_process(),
            duration=scenario.duration,
            drain_time=200.0,
            options=options,
        )
        digest = hashlib.sha256(result.stats.summary_text().encode()).hexdigest()
        assert digest == SINGLE_ZONE_SHA256
        # The hook really ran, once per workload check, and always handed the
        # unregistered single-tenant system its entire stable set back.
        assert partitioner.share_calls > 0

    def test_multi_zone_golden_with_partitioner_installed(self):
        partitioner = _CountingPartitioner()
        scenario, arrivals = multi_zone_fluctuating_scenario(
            "OPT-6.7B", duration=600.0
        )
        options = scenario.options()
        options.fleet_partitioner = partitioner
        result = run_serving_experiment(
            SpotServeSystem,
            scenario.model_name,
            trace=None,
            arrival_process=arrivals,
            duration=scenario.duration,
            drain_time=300.0,
            options=options,
            zones=scenario.zones,
            allow_spot_requests=True,
        )
        digest = hashlib.sha256(result.stats.summary_text().encode()).hexdigest()
        assert digest == MULTI_ZONE_SHA256
        assert partitioner.share_calls > 0

    def test_subset_partitioner_shrinks_the_planning_fleet(self):
        """A non-trivial share demonstrably restricts the control stack."""
        partitioner = _DropOnePartitioner()
        simulator = Simulator()
        provider = CloudProvider(
            simulator, None, zones=overload_market(300.0), allow_spot_requests=False
        )
        system = SpotServeSystem(
            simulator,
            provider,
            get_model("OPT-6.7B"),
            options=SpotServeOptions(fleet_partitioner=partitioner),
            initial_arrival_rate=0.3,
        )
        system.submit_arrival_process(GammaArrivals(0.3, cv=6.0, seed=0), 300.0)
        system.initialize()
        simulator.run(until=360.0)
        # The partitioner saw the whole pinned six-instance fleet...
        assert max(partitioner.full_sizes) == 6
        # ...but the system may only plan on five of them.
        manager = system.instance_manager
        assert manager.excluded == frozenset({partitioner.dropped})
        assert len(manager.stable_instances()) == 5
        # Conservation is unaffected by the restriction.
        stats = system.stats
        assert system.submitted_requests == (
            stats.completed_count
            + system.unfinished_request_count()
            + stats.requests_dropped
            + stats.requests_rejected
            + stats.requests_shed
        )


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


# ----------------------------------------------------------------------
# Shared-zone outage: co-located tenants evacuate independently
# ----------------------------------------------------------------------
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


class TestSharedZoneEvacuation:
    """No cross-tenant pipeline leakage on a shared-zone outage.

    ``Dataplane.teardown`` and ``Dataplane.reroute`` are tenant-local by
    construction: each tenant has its own dataplane, pipelines and queue,
    so a tenant can only ever tear down and re-queue its *own* work.  The
    genuinely shared surfaces were the provider-wide fleet scans (zone
    views, launching counts, initial-fleet adoption), which the ownership
    predicates now filter -- this regression
    pins the end-to-end consequence: two tenants co-located on the same
    zones ride out a full-zone outage with disjoint held sets and intact
    per-tenant conservation.
    """

    def test_colocated_tenants_evacuate_independently(self):
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
        simulator = Simulator()
        provider = CloudProvider(
            simulator,
            None,
            zones=_shared_outage_market(duration),
            allow_spot_requests=True,
        )
        system = MultiTenantSystem(simulator, provider, tenants)
        system.submit_workloads(duration)
        system.initialize()
        simulator.run(until=duration + 150.0)

        _tenant_conservation(system)
        _fleet_conservation(system)
        system_a = system.systems["shared-a"]
        system_b = system.systems["shared-b"]
        # Both tenants observed the shared outage on their own stats...
        assert system_a.stats.zone_outages == 1
        assert system_b.stats.zone_outages == 1
        # ...requests were evacuated, never lost...
        assert system_a.stats.requests_dropped == 0
        assert system_b.stats.requests_dropped == 0
        # ...and the fleets never bled into each other: held sets are
        # disjoint and every held instance is owned by its holder.
        held_a = set(system_a.instance_manager._held)
        held_b = set(system_b.instance_manager._held)
        assert not held_a & held_b
        for instance_id in held_a:
            assert system.owners.get(instance_id) == "shared-a"
        for instance_id in held_b:
            assert system.owners.get(instance_id) == "shared-b"
        # Pipelines are strictly tenant-local (the teardown/reroute surface).
        ids_a = system_a.dataplane.instance_ids()
        ids_b = system_b.dataplane.instance_ids()
        assert not ids_a & ids_b
        assert ids_a <= held_a
        assert ids_b <= held_b


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
# Perf-harness integration: the multi_tenant scenario and its --check guards
# ----------------------------------------------------------------------
class TestPerfCheckMultiTenantGuard:
    """run_perf.py --check guards the multi_tenant scenario (fail/pass/skip)."""

    @staticmethod
    def load_run_perf():
        spec = importlib.util.spec_from_file_location(
            "run_perf", REPO_ROOT / "benchmarks" / "perf" / "run_perf.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def report(round_ms, events):
        return {
            "adaptation_round_ms": round_ms,
            "sim_events_per_sec": events,
            "phases": {},
        }

    def baseline(self, tmp_path, entry):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"scenarios": {"multi_tenant": entry}}))
        return path

    def test_scenario_is_registered(self):
        run_perf = self.load_run_perf()
        assert "multi_tenant" in run_perf.SCENARIOS

    def test_committed_baseline_guards_the_scenario(self):
        baseline = json.loads(
            (REPO_ROOT / "benchmarks" / "perf" / "baseline.json").read_text()
        )
        entry = baseline["scenarios"]["multi_tenant"]
        assert entry["adaptation_round_ms"] > 0
        assert entry["min_sim_events_per_sec"] > 0

    def test_ci_matrix_runs_the_scenario(self):
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "--scenario multi_tenant" in workflow

    def test_round_regression_fails_the_check(self, tmp_path):
        run_perf = self.load_run_perf()
        baseline = self.baseline(
            tmp_path, {"adaptation_round_ms": 4.5, "min_sim_events_per_sec": 25000}
        )
        reports = {"multi_tenant": self.report(round_ms=20.0, events=90000.0)}
        assert run_perf.check_regression(reports, baseline, max_regression=2.0) == 1

    def test_events_floor_regression_fails_the_check(self, tmp_path):
        run_perf = self.load_run_perf()
        baseline = self.baseline(
            tmp_path, {"adaptation_round_ms": 4.5, "min_sim_events_per_sec": 25000}
        )
        reports = {"multi_tenant": self.report(round_ms=2.0, events=10000.0)}
        assert run_perf.check_regression(reports, baseline, max_regression=2.0) == 1

    def test_within_limits_passes(self, tmp_path):
        run_perf = self.load_run_perf()
        baseline = self.baseline(
            tmp_path, {"adaptation_round_ms": 4.5, "min_sim_events_per_sec": 25000}
        )
        reports = {"multi_tenant": self.report(round_ms=4.0, events=90000.0)}
        assert run_perf.check_regression(reports, baseline, max_regression=2.0) == 0

    def test_unlisted_scenario_skips_the_guard(self, tmp_path):
        run_perf = self.load_run_perf()
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"scenarios": {}}))
        reports = {"multi_tenant": self.report(round_ms=999.0, events=1.0)}
        assert run_perf.check_regression(reports, path, max_regression=2.0) == 0
