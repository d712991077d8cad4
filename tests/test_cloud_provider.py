"""Tests for the simulated cloud provider, instance manager and cost tracker."""

import pytest

from repro.cloud.instance import G4DN_12XLARGE, Instance, InstanceState, Market
from repro.cloud.manager import CANDIDATE_POOL_SIZE, InstanceManager
from repro.cloud.pricing import CostTracker, PriceSchedule
from repro.cloud.provider import CloudProvider
from repro.cloud.trace import AvailabilityTrace, TraceEvent, TraceEventKind
from repro.sim.engine import Simulator
from repro.sim.events import EventType


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
