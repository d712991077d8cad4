"""Tests for the simulated cloud provider, instance manager and cost tracker."""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.cloud.instance import G4DN_12XLARGE, Instance, InstanceState, Market
from repro.cloud.manager import CANDIDATE_POOL_SIZE, InstanceManager
from repro.cloud.pricing import CostTracker, PriceSchedule
from repro.cloud.provider import CloudProvider
from repro.cloud.trace import AvailabilityTrace, TraceEvent, TraceEventKind
from repro.cloud.zone import OutageWindow, ZoneSpec
from repro.core.acquisition import FleetAcquirer
from repro.core.server import SpotServeSystem
from repro.faults.injector import FaultInjector, FaultPlan, ZoneFaultModel
from repro.llm.spec import get_model
from repro.sim.engine import Simulator
from repro.sim.events import EventType

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench import workloads  # noqa: E402


def small_trace():
    return AvailabilityTrace(
        name="small",
        initial_instances=3,
        events=[
            TraceEvent(100.0, TraceEventKind.PREEMPT, 1),
            TraceEvent(300.0, TraceEventKind.ACQUIRE, 1),
        ],
        duration=600.0,
    )


class TestCloudProvider:
    def test_initial_fleet_is_ready_at_time_zero(self):
        sim = Simulator()
        provider = CloudProvider(sim, small_trace())
        assert len(provider.usable_instances()) == 3

    def test_initial_fleet_does_not_emit_acquisition_events(self):
        sim = Simulator()
        seen = []
        sim.on(EventType.ACQUISITION_READY, lambda e: seen.append(e))
        CloudProvider(sim, small_trace())
        sim.run(until=50.0)
        assert seen == []

    def test_preemption_notice_then_final_after_grace(self):
        sim = Simulator()
        notices, finals = [], []
        sim.on(EventType.PREEMPTION_NOTICE, lambda e: notices.append(e))
        sim.on(EventType.PREEMPTION_FINAL, lambda e: finals.append(e))
        provider = CloudProvider(sim, small_trace())
        sim.run(until=200.0)
        assert len(notices) == 1
        assert len(finals) == 1
        assert notices[0].time == pytest.approx(100.0)
        assert finals[0].time == pytest.approx(100.0 + G4DN_12XLARGE.grace_period)
        assert notices[0].payload["deadline"] == pytest.approx(finals[0].time)
        assert finals[0].payload["instance"].state is InstanceState.PREEMPTED
        assert len(provider.usable_instances()) == 2

    def test_trace_acquisition_announces_instance(self):
        sim = Simulator()
        acquired = []
        sim.on(EventType.ACQUISITION_READY, lambda e: acquired.append(e.payload["instance"]))
        provider = CloudProvider(sim, small_trace())
        sim.run(until=400.0)
        assert len(acquired) == 1
        assert acquired[0].is_usable
        assert len(provider.usable_instances()) == 3

    def test_on_demand_request_ready_after_startup_delay(self):
        sim = Simulator()
        ready = []
        sim.on(EventType.ACQUISITION_READY, lambda e: ready.append(e))
        provider = CloudProvider(sim, small_trace())
        granted = provider.request_on_demand(2)
        assert len(granted) == 2
        assert all(inst.market is Market.ON_DEMAND for inst in granted)
        sim.run(until=G4DN_12XLARGE.startup_delay + 1)
        assert len(ready) == 2
        assert all(event.payload["instance"].is_usable for event in ready)

    def test_spot_requests_disabled_by_default(self):
        sim = Simulator()
        provider = CloudProvider(sim, small_trace())
        assert provider.request_spot(3) == []

    def test_spot_requests_when_enabled(self):
        sim = Simulator()
        provider = CloudProvider(sim, small_trace(), allow_spot_requests=True)
        granted = provider.request_spot(2)
        assert len(granted) == 2

    def test_release_stops_billing(self):
        sim = Simulator()
        provider = CloudProvider(sim, small_trace())
        instance = provider.usable_instances()[0]
        provider.release(instance)
        assert not instance.is_alive
        # Releasing twice is a silent no-op.
        provider.release(instance)

    def test_victim_selection_is_seed_deterministic(self):
        def victims(seed):
            sim = Simulator()
            provider = CloudProvider(sim, small_trace(), victim_seed=seed)
            preempted = []
            sim.on(
                EventType.PREEMPTION_NOTICE,
                lambda e: preempted.append(e.payload["instance"].instance_id),
            )
            sim.run(until=200.0)
            # Normalise: ids are globally unique, compare by index in fleet.
            fleet = sorted(inst.instance_id for inst in provider._instances.values())
            return [fleet.index(v) for v in preempted]

        assert victims(1) == victims(1)

    def test_on_demand_trace_market(self):
        sim = Simulator()
        provider = CloudProvider(sim, small_trace(), trace_market=Market.ON_DEMAND)
        assert all(inst.market is Market.ON_DEMAND for inst in provider._instances.values())


class TestCostTracker:
    def test_cost_accrues_per_hour(self):
        tracker = CostTracker()
        instance = Instance(instance_type=G4DN_12XLARGE, market=Market.SPOT, launch_time=0.0)
        tracker.start_billing(instance, 0.0, PriceSchedule.flat(1.9))
        assert tracker.total_cost(3600.0) == pytest.approx(1.9)
        tracker.stop_billing(instance, 3600.0)
        assert tracker.total_cost(7200.0) == pytest.approx(1.9)

    def test_each_record_bills_at_its_own_schedule(self):
        tracker = CostTracker()
        spot = Instance(instance_type=G4DN_12XLARGE, market=Market.SPOT, launch_time=0.0)
        od = Instance(instance_type=G4DN_12XLARGE, market=Market.ON_DEMAND, launch_time=0.0)
        tracker.start_billing(spot, 0.0, PriceSchedule.flat(1.9))
        tracker.start_billing(od, 0.0, PriceSchedule(3.9, changes=((1800.0, 5.9),)))
        costs = {record.market: record.cost(3600.0) for record in tracker.iter_records()}
        assert costs == {
            Market.SPOT: pytest.approx(1.9),
            Market.ON_DEMAND: pytest.approx(0.5 * 3.9 + 0.5 * 5.9),
        }
        assert tracker.total_cost(3600.0) == pytest.approx(1.9 + 4.9)

    def test_double_billing_rejected(self):
        tracker = CostTracker()
        instance = Instance(instance_type=G4DN_12XLARGE, market=Market.SPOT, launch_time=0.0)
        tracker.start_billing(instance, 0.0, PriceSchedule.flat(1.9))
        with pytest.raises(ValueError):
            tracker.start_billing(instance, 10.0, PriceSchedule.flat(1.9))

    def test_stop_billing_unknown_instance_is_noop(self):
        tracker = CostTracker()
        instance = Instance(instance_type=G4DN_12XLARGE, market=Market.SPOT, launch_time=0.0)
        tracker.stop_billing(instance, 10.0)
        assert tracker.total_cost(3600.0) == 0.0


class TestInstanceManager:
    def _provider(self, allow_on_demand=True):
        sim = Simulator()
        provider = CloudProvider(sim, small_trace())
        manager = InstanceManager(provider, allow_on_demand=allow_on_demand)
        manager.adopt_initial_fleet()
        return sim, provider, manager

    def test_adopt_initial_fleet(self):
        _, _, manager = self._provider()
        assert manager.available_count() == 3
        assert sum(inst.num_gpus for inst in manager.stable_instances()) == 12

    def test_preemption_notice_excludes_instance_from_stable_set(self):
        sim, provider, manager = self._provider()
        sim.on(EventType.PREEMPTION_NOTICE, manager.on_preemption_notice)
        sim.on(EventType.PREEMPTION_FINAL, manager.on_preemption_final)
        sim.run(until=110.0)
        assert manager.available_count() == 2
        assert len(manager.grace_deadlines) == 1
        sim.run(until=200.0)
        assert manager.available_count() == 2
        assert manager.grace_deadlines == {}

    def test_alloc_uses_on_demand_when_spot_unavailable(self):
        _, _, manager = self._provider(allow_on_demand=True)
        granted = manager.alloc(2)
        assert len(granted) == 2
        assert all(inst.market is Market.ON_DEMAND for inst in granted)

    def test_alloc_spot_only_returns_nothing_without_capacity(self):
        _, _, manager = self._provider(allow_on_demand=False)
        assert manager.alloc(2) == []

    def test_free_keeps_candidate_pool(self):
        _, _, manager = self._provider()
        released = manager.free(CANDIDATE_POOL_SIZE + 1)
        # The pool absorbs all but one of the requested releases.
        assert len(released) == 1
        assert manager.available_count() == 2

    def test_free_releases_on_demand_first(self):
        sim, provider, manager = self._provider()
        sim.on(EventType.ACQUISITION_READY, manager.on_acquisition_ready)
        manager.alloc(1)
        sim.run(until=G4DN_12XLARGE.startup_delay + 1)
        held = manager.held_instances()
        assert [inst.market for inst in held].count(Market.ON_DEMAND) == 1
        released = manager.free(CANDIDATE_POOL_SIZE + 1)
        assert released
        assert released[0].market is Market.ON_DEMAND


def random_trace(rng, name, initial):
    """A seeded trace of grants and reclaims that never drives its count negative."""
    events, count, time = [], initial, 0.0
    for _ in range(6):
        time += rng.uniform(10.0, 90.0)
        if count and rng.random() < 0.5:
            kind, amount = TraceEventKind.PREEMPT, rng.randint(1, count)
        else:
            kind, amount = TraceEventKind.ACQUIRE, rng.randint(1, 2)
        count += amount if kind is TraceEventKind.ACQUIRE else -amount
        events.append(TraceEvent(time, kind, amount))
    return AvailabilityTrace(name=name, initial_instances=initial, events=events, duration=600.0)


class ScanningProvider(CloudProvider):
    """The scan reference: every view and victim pick scans every instance ever granted."""

    def alive_instances(self):
        return [inst for inst in self._instances.values() if inst.is_alive]


def assert_views_match_a_scan(provider):
    """Every fleet view equals a scan of every instance ever granted, order included."""
    everyone = list(provider._instances.values())
    alive = [inst for inst in everyone if inst.is_alive]
    assert provider.alive_instances() == alive
    assert provider.usable_instances() == [inst for inst in everyone if inst.is_usable]
    now = provider.simulator.now
    for zone, spec in provider.zones.items():
        in_zone = sum(1 for inst in alive if inst.zone == zone)
        assert provider.alive_in_zone(zone) == in_zone
        if spec.outage_at(now) is not None:
            room = 0
        elif spec.capacity is None:
            room = 1_000_000
        else:
            room = max(spec.capacity - in_zone, 0)
        assert provider.capacity_remaining(zone) == room


def drive(provider_class, seed, check=None):
    """A seeded random sequence of grants, cloud events and releases.

    It requests spot and on-demand instances, releases random instances
    (live or not), advances the clock through trace grants and reclaims,
    ready events, notices, finals, launch failures and a zone outage, and
    once kills a usable instance through its own :class:`Instance` method,
    outside the provider.  *check* runs after every event and every step.
    Returns the provider and what happened.
    """
    rng = random.Random(seed)
    sim = Simulator()
    zones = [
        ZoneSpec(
            name="east",
            trace=random_trace(rng, "e", 3),
            capacity=6,
            outages=(OutageWindow(start=200.0, duration=60.0, warning=30.0),),
        ),
        ZoneSpec(name="west", trace=random_trace(rng, "w", 2)),
        ZoneSpec(name="north", trace=random_trace(rng, "n", 1), capacity=3),
    ]
    # Launches never fail in the zone that goes dark, so the on-demand
    # instances requested there first are still alive for its outage.
    plan = FaultPlan(
        seed=seed,
        default_model=ZoneFaultModel(launch_failure_prob=0.4, early_preemption_prob=0.3),
        zone_models=(("east", ZoneFaultModel(early_preemption_prob=0.3)),),
    )
    provider = provider_class(
        sim,
        zones=zones,
        allow_spot_requests=True,
        victim_seed=seed,
        fault_injector=FaultInjector(plan),
    )
    provider.request_on_demand(2, zone="east")
    seen = Counter()
    sim.on(EventType.ACQUISITION_READY, lambda e: seen.update(["ready"]))
    sim.on(EventType.PREEMPTION_NOTICE, lambda e: seen.update(["notice"]))
    sim.on(EventType.PREEMPTION_FINAL, lambda e: seen.update(["final"]))
    sim.on(
        EventType.LAUNCH_FAILURE,
        lambda e: seen.update(["launch_failure"] * e.payload["applied"]),
    )
    sim.on(
        EventType.ZONE_OUTAGE,
        lambda e: seen.update(["down"] * len(e.payload.get("failed_instances", ()))),
    )
    if check is not None:
        for event_type in EventType:
            sim.on(event_type, lambda e: check(provider))
    kill_step = rng.randrange(10, 30)
    for step in range(70):
        action = rng.choice(("spot", "on_demand", "release", "advance", "advance"))
        zone = rng.choice((None, "east", "west", "north"))
        if action == "spot":
            provider.request_spot(rng.randint(1, 3), zone=zone)
        elif action == "on_demand":
            provider.request_on_demand(rng.randint(1, 2), zone=zone)
        elif action == "release":
            instance = rng.choice(list(provider._instances.values()))
            seen["release"] += instance.is_alive
            provider.release(instance)
        else:
            sim.run(until=sim.now + rng.uniform(5.0, 25.0))
        if step >= kill_step and not seen["outside"] and provider.usable_instances():
            rng.choice(provider.usable_instances()).fail(sim.now)
            seen["outside"] += 1
        if check is not None:
            check(provider)
    return provider, seen


def history(provider):
    """Each granted instance's lifecycle, in grant order (ids are process-global)."""
    return [
        (
            inst.zone,
            inst.market,
            inst.state,
            inst.launch_time,
            inst.ready_time,
            inst.preemption_notice_time,
            inst.termination_time,
        )
        for inst in provider._instances.values()
    ]


class TestLiveFleetIndex:
    """The provider's live index gives the views a scan of every grant gives."""

    @pytest.mark.parametrize("seed", range(6))
    def test_views_equal_a_scan_of_every_grant(self, seed):
        _, seen = drive(CloudProvider, seed, check=assert_views_match_a_scan)
        for happened in (
            "ready",
            "notice",
            "final",
            "launch_failure",
            "down",
            "release",
            "outside",
        ):
            assert seen[happened], f"seed {seed} never saw {happened}: {dict(seen)}"

    @pytest.mark.parametrize("seed", range(6))
    def test_histories_equal_a_scanning_providers(self, seed):
        """Victim picks and outage scans pick what scanning every grant picks."""
        indexed, seen = drive(CloudProvider, seed)
        scanning, scanning_seen = drive(ScanningProvider, seed)
        assert history(indexed) == history(scanning)
        assert seen == scanning_seen

    def test_a_kill_outside_the_provider_leaves_the_index(self):
        sim = Simulator()
        provider = CloudProvider(sim, small_trace())
        victim = provider.usable_instances()[1]
        victim.release(0.0)
        assert victim not in provider.usable_instances()
        assert victim.instance_id not in provider._alive
        assert provider.alive_in_zone(victim.zone) == 2


#: ``_autoscale_signal``'s ``Instance.is_alive`` reads allowed per live
#: instance: one walk of the live fleet per zone's capacity and one for
#: the launching instances read 4 on churn's three zones.  Scanning every
#: instance ever granted read 6.2 at one chaos period and 9.8 at three.
MAX_ALIVE_READS_PER_LIVE_INSTANCE = 5.0


def alive_reads_per_live_instance(periods):
    """``Instance.is_alive`` reads inside ``_autoscale_signal`` per live instance.

    Runs perfbench's churn workload (seed 0) over *periods* chaos periods,
    wired as ``perfbench/replay.py`` wires it, and divides the reads by
    the live fleet (launching or usable instances) at each call, summed.
    """
    work = workloads.build("churn", 0, periods)
    scenario = work.scenario
    sim = Simulator()
    provider = CloudProvider(
        sim,
        None,
        zones=scenario.zones,
        allow_spot_requests=work.allow_spot_requests,
        fault_injector=FaultInjector(scenario.fault_plan),
    )
    arrivals = work.arrivals.count_arrivals(scenario.duration)
    system = SpotServeSystem(
        sim,
        provider,
        get_model(scenario.model_name),
        options=scenario.options(),
        initial_arrival_rate=max(arrivals / max(scenario.duration, 1.0), 1e-3),
    )
    system.submit_arrival_process(work.arrivals, scenario.duration)
    system.initialize()
    is_alive = Instance.is_alive.fget
    signal = FleetAcquirer._autoscale_signal
    counted = {"reads": 0, "live": 0, "calls": 0}
    counting = [False]

    def counting_is_alive(instance):
        counted["reads"] += counting[0]
        return is_alive(instance)

    def counting_signal(acquirer):
        counted["live"] += sum(1 for inst in provider._instances.values() if is_alive(inst))
        counted["calls"] += 1
        counting[0] = True
        try:
            return signal(acquirer)
        finally:
            counting[0] = False

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Instance, "is_alive", property(counting_is_alive))
        patch.setattr(FleetAcquirer, "_autoscale_signal", counting_signal)
        system.run(until=scenario.duration + work.drain_time)
    assert counted["calls"] > 50
    return counted["reads"] / counted["live"]


def test_the_fleet_snapshot_scales_with_the_live_fleet():
    """More history (chaos periods) does not make a snapshot read more instances."""
    short, long = alive_reads_per_live_instance(1), alive_reads_per_live_instance(3)
    assert short <= MAX_ALIVE_READS_PER_LIVE_INSTANCE
    assert long <= MAX_ALIVE_READS_PER_LIVE_INSTANCE
    assert long <= short * 1.1
