"""Tests for the baseline serving systems."""

import pytest

from repro.baselines.ondemand import on_demand_trace
from repro.baselines.reparallelization import ReparallelizationSystem
from repro.baselines.rerouting import RequestReroutingSystem
from repro.cloud.instance import InstanceType, Market
from repro.cloud.provider import CloudProvider
from repro.cloud.trace import AvailabilityTrace, TraceEvent, TraceEventKind
from repro.core.config import ParallelConfig
from repro.core.migration import restart_stall_time
from repro.core.reconfiguration import ENGINE_LAUNCH_TIME
from repro.core.server import SpotServeSystem
from repro.llm.spec import GPT_20B
from repro.sim.engine import Simulator
from repro.workload.arrival import FixedArrivals, GammaArrivals


def trace_with_preemption(instances=6, preempt_at=200.0, count=1, duration=1200.0):
    return AvailabilityTrace(
        name="test",
        initial_instances=instances,
        events=[TraceEvent(preempt_at, TraceEventKind.PREEMPT, count)],
        duration=duration,
    )


def build(system_cls, trace, rate=0.3, **kwargs):
    simulator = Simulator()
    provider = CloudProvider(simulator, trace)
    system = system_cls(simulator, provider, GPT_20B, initial_arrival_rate=rate, **kwargs)
    return simulator, provider, system


class TestReparallelization:
    def test_restart_has_large_stall_and_no_reuse(self):
        trace = trace_with_preemption()
        _, _, system = build(ReparallelizationSystem, trace)
        system.submit_requests(FixedArrivals([100.0, 400.0]).generate(trace.duration))
        stats = system.run(until=trace.duration + 600.0)
        records = [r for r in stats.reconfigurations if "preemption" in r.reason]
        assert records
        assert records[0].reused_bytes == 0.0
        assert records[0].stall_time > 10.0

    def test_stateful_recovery_is_forced_off(self):
        trace = trace_with_preemption()
        _, _, system = build(ReparallelizationSystem, trace)
        assert system.options.stateful_recovery is False

    def test_reacts_after_the_grace_period(self):
        trace = trace_with_preemption(preempt_at=200.0)
        _, _, system = build(ReparallelizationSystem, trace)
        system.submit_requests(FixedArrivals([100.0]).generate(trace.duration))
        stats = system.run(until=trace.duration)
        records = [r for r in stats.reconfigurations if "preemption" in r.reason]
        assert records
        assert records[0].time >= 230.0  # notice at 200 s + 30 s grace

    def test_completes_workload(self):
        trace = trace_with_preemption()
        _, _, system = build(ReparallelizationSystem, trace)
        requests = GammaArrivals(rate=0.2, cv=2.0, seed=3).generate(trace.duration)
        system.submit_requests(requests)
        stats = system.run(until=trace.duration + 900.0)
        assert stats.completed_count == len(requests)


class TestRerouting:
    def test_fixed_shape_never_changes(self):
        trace = trace_with_preemption(count=2)
        _, _, system = build(RequestReroutingSystem, trace)
        system.submit_requests(FixedArrivals([100.0, 400.0, 700.0]).generate(trace.duration))
        system.initialize()
        shape = system.current_config
        stats = system.run(until=trace.duration)
        assert shape is not None
        for _, config in stats.config_timeline:
            assert config.pipeline_degree == shape.pipeline_degree
            assert config.tensor_degree == shape.tensor_degree
            assert config.batch_size == shape.batch_size

    def test_preemption_drops_a_pipeline(self):
        trace = trace_with_preemption()
        _, _, system = build(RequestReroutingSystem, trace)
        system.submit_requests(FixedArrivals([100.0]).generate(trace.duration))
        system.initialize()
        before = len(system.dataplane.pipelines)
        stats = system.run(until=400.0)
        assert len(system.dataplane.pipelines) <= before
        assert stats.preemption_notices == 1

    def test_interrupted_requests_are_rerouted_and_recomputed(self):
        trace = trace_with_preemption(instances=6, preempt_at=150.0, count=3)
        _, _, system = build(RequestReroutingSystem, trace)
        requests = FixedArrivals([140.0]).generate(trace.duration)
        system.submit_requests(requests)
        stats = system.run(until=trace.duration + 600.0)
        assert stats.completed_count == 1

    def test_acquisition_rebuilds_a_pipeline_after_weight_load(self):
        trace = AvailabilityTrace(
            name="rebuild",
            initial_instances=6,
            events=[
                TraceEvent(150.0, TraceEventKind.PREEMPT, 2),
                TraceEvent(400.0, TraceEventKind.ACQUIRE, 2),
            ],
            duration=1200.0,
        )
        _, _, system = build(RequestReroutingSystem, trace)
        system.submit_requests(FixedArrivals([100.0]).generate(trace.duration))
        system.initialize()
        initial_pipelines = len(system.dataplane.pipelines)
        system.run(until=399.0)
        dropped = len(system.dataplane.pipelines)
        system.run(until=trace.duration)
        recovered = len(system.dataplane.pipelines)
        assert dropped < initial_pipelines
        assert recovered >= dropped

    def test_warm_up_loads_the_weights_of_its_own_instance_size(self, monkeypatch):
        """On 8-GPU instances one instance holds a whole (P=2, M=4) pipeline."""
        trace = AvailabilityTrace(
            name="rebuild-8-gpu",
            initial_instances=3,
            events=[
                TraceEvent(150.0, TraceEventKind.PREEMPT, 1),
                TraceEvent(400.0, TraceEventKind.ACQUIRE, 1),
            ],
            duration=1200.0,
        )
        warm_ups = []
        schedule_after = Simulator.schedule_after

        def recording_schedule_after(simulator, delay, *args, **kwargs):
            event = schedule_after(simulator, delay, *args, **kwargs)
            if isinstance(event.payload, dict) and "instance_ids" in event.payload:
                warm_ups.append(delay)
            return event

        monkeypatch.setattr(Simulator, "schedule_after", recording_schedule_after)
        simulator = Simulator()
        provider = CloudProvider(
            simulator, trace, instance_type=InstanceType(gpus_per_instance=8)
        )
        system = RequestReroutingSystem(
            simulator, provider, GPT_20B, initial_arrival_rate=0.3
        )
        system.submit_requests(FixedArrivals([100.0]).generate(trace.duration))
        system.initialize()
        shape = system.current_config
        assert (shape.pipeline_degree, shape.tensor_degree) == (2, 4)
        system.run(until=trace.duration)
        single = ParallelConfig(1, 2, 4, shape.batch_size)
        expected = restart_stall_time(GPT_20B, single, 8) + ENGINE_LAUNCH_TIME
        assert warm_ups == [expected]
        # A 4-GPU instance would load half of the pipeline's weights.
        assert restart_stall_time(GPT_20B, single, 4) < restart_stall_time(GPT_20B, single, 8)


def on_demand_provider(simulator, num_instances, duration):
    """A fixed fleet billed at the on-demand price."""
    return CloudProvider(
        simulator,
        on_demand_trace(num_instances, duration),
        trace_market=Market.ON_DEMAND,
    )


class TestOnDemand:
    def test_trace_has_no_preemptions(self):
        trace = on_demand_trace(4, duration=600.0)
        assert trace.events == []
        assert trace.initial_instances == 4
        with pytest.raises(ValueError):
            on_demand_trace(0)

    def test_provider_bills_at_on_demand_price(self):
        simulator = Simulator()
        provider = on_demand_provider(simulator, num_instances=2, duration=3600.0)
        simulator.run(until=3600.0)
        assert provider.cost_tracker.total_cost(3600.0) == pytest.approx(2 * 3.9, rel=1e-6)
        records = provider.cost_tracker.iter_records()
        assert [record.market for record in records] == [Market.ON_DEMAND] * 2

    def test_on_demand_system_serves_without_reconfiguring_for_preemptions(self):
        simulator = Simulator()
        provider = on_demand_provider(simulator, num_instances=4, duration=1200.0)
        system = SpotServeSystem(simulator, provider, GPT_20B, initial_arrival_rate=0.3)
        requests = FixedArrivals([50.0 * i for i in range(1, 10)]).generate(1200.0)
        system.submit_requests(requests)
        stats = system.run(until=1800.0)
        assert stats.completed_count == len(requests)
        assert stats.preemption_notices == 0
