"""Integration-style tests for the SpotServe serving system."""

import pytest

from repro.cloud.provider import CloudProvider
from repro.cloud.trace import AvailabilityTrace, TraceEvent, TraceEventKind
from repro.core.server import SpotServeOptions, SpotServeSystem
from repro.llm.spec import GPT_20B, OPT_6_7B
from repro.sim.engine import Simulator
from repro.sim.events import EventType
from repro.workload.arrival import FixedArrivals, GammaArrivals


def steady_trace(instances=6, duration=1200.0, events=()):
    return AvailabilityTrace(
        name="steady",
        initial_instances=instances,
        events=list(events),
        duration=duration,
    )


def build_system(trace, model=GPT_20B, options=None, rate=0.3):
    simulator = Simulator()
    provider = CloudProvider(simulator, trace)
    system = SpotServeSystem(
        simulator, provider, model, options=options, initial_arrival_rate=rate
    )
    return simulator, provider, system


class TestSteadyState:
    def test_initialize_deploys_a_configuration(self):
        _, _, system = build_system(steady_trace())
        system.initialize()
        assert system.current_config is not None
        assert system.dataplane.pipelines
        assert system.current_config.num_instances(4) <= 6

    def test_all_requests_complete_without_preemptions(self):
        trace = steady_trace()
        _, _, system = build_system(trace)
        requests = FixedArrivals([10.0 * i for i in range(20)]).generate(trace.duration)
        system.submit_requests(requests)
        stats = system.run(until=trace.duration + 600.0)
        assert stats.completed_count == 20
        assert all(r.latency() is not None for r in stats.completed_requests)
        assert stats.preemption_notices == 0

    def test_latencies_are_at_least_the_execution_latency(self):
        trace = steady_trace()
        _, _, system = build_system(trace)
        requests = FixedArrivals([50.0]).generate(trace.duration)
        system.submit_requests(requests)
        stats = system.run(until=trace.duration)
        config = system.current_config
        floor = system.latency_model.l_exe(
            config.pipeline_degree, config.tensor_degree, 1
        )
        assert stats.latencies()[0] >= 0.9 * floor

    def test_no_serving_without_instances(self):
        trace = steady_trace(instances=0)
        _, _, system = build_system(trace)
        system.initialize()
        assert system.current_config is None
        assert system.dataplane.pipelines == []

    def test_run_after_an_empty_initialize_does_not_initialize_again(self):
        # One instance cannot host GPT-20B, so initialize() deploys nothing.
        # A second initialisation from run() would arm a second
        # WORKLOAD_CHECK chain and run every adaptation round twice.
        trace = steady_trace(
            instances=1, events=[TraceEvent(100.0, TraceEventKind.ACQUIRE, 4)]
        )
        simulator, _, system = build_system(trace)
        checks = []
        simulator.on(EventType.WORKLOAD_CHECK, lambda event: checks.append(event.time))
        system.initialize()
        assert system.current_config is None
        system.run(until=300.0)
        assert checks == [30.0 * k for k in range(1, 11)]
        assert system.current_config is not None


class TestPreemptionHandling:
    def preemption_trace(self):
        return steady_trace(
            instances=6,
            events=[TraceEvent(200.0, TraceEventKind.PREEMPT, 2)],
        )

    def test_preemption_triggers_reconfiguration_and_requests_survive(self):
        trace = self.preemption_trace()
        _, provider, system = build_system(trace)
        requests = GammaArrivals(rate=0.25, cv=2.0, seed=1).generate(trace.duration)
        system.submit_requests(requests)
        stats = system.run(until=trace.duration + 900.0)
        assert stats.preemption_notices == 2
        assert stats.reconfigurations
        assert stats.completed_count == len(requests)
        # The new deployment never uses the preempted instances.
        preempted = {
            inst.instance_id for inst in provider.instances if not inst.is_alive
        }
        for pipeline in system.dataplane.pipelines:
            assert not preempted & set(pipeline.assignment.instance_ids)

    def test_reconfiguration_records_context_reuse(self):
        trace = self.preemption_trace()
        _, _, system = build_system(trace)
        requests = FixedArrivals([100.0, 150.0, 180.0]).generate(trace.duration)
        system.submit_requests(requests)
        stats = system.run(until=trace.duration)
        preemption_records = [
            r for r in stats.reconfigurations if "preemption" in r.reason
        ]
        assert preemption_records
        assert preemption_records[0].reused_bytes > 0

    def test_stateful_recovery_avoids_recomputation(self):
        """With stateful recovery the interrupted batch resumes from its
        committed token; disabling it recomputes from scratch."""
        def run(stateful):
            trace = self.preemption_trace()
            options = SpotServeOptions(stateful_recovery=stateful)
            _, _, system = build_system(trace, options=options)
            requests = FixedArrivals([180.0]).generate(trace.duration)
            system.submit_requests(requests)
            stats = system.run(until=trace.duration)
            return stats.completed_requests[0]

        preserved = run(stateful=True)
        recomputed = run(stateful=False)
        assert preserved.latency() <= recomputed.latency() + 1e-6
        assert recomputed.recomputed_tokens >= preserved.recomputed_tokens

    def test_acquisition_is_absorbed_or_improves_capacity(self):
        trace = steady_trace(
            instances=3,
            events=[TraceEvent(300.0, TraceEventKind.ACQUIRE, 3)],
        )
        _, _, system = build_system(trace, rate=0.5)
        requests = GammaArrivals(rate=0.4, cv=2.0, seed=2).generate(trace.duration)
        system.submit_requests(requests)
        stats = system.run(until=trace.duration + 900.0)
        assert stats.acquisitions == 3
        assert stats.completed_count == len(requests)
        assert system.current_config is not None

    def test_full_fleet_loss_halts_then_recovers(self):
        trace = steady_trace(
            instances=3,
            events=[
                TraceEvent(200.0, TraceEventKind.PREEMPT, 3),
                TraceEvent(500.0, TraceEventKind.ACQUIRE, 3),
            ],
        )
        _, _, system = build_system(trace)
        requests = FixedArrivals([100.0, 400.0]).generate(trace.duration)
        system.submit_requests(requests)
        stats = system.run(until=trace.duration + 900.0)
        assert stats.completed_count == 2


class TestOptions:
    def test_disabled_controller_keeps_configuration_shape(self):
        trace = steady_trace(
            instances=6,
            events=[TraceEvent(200.0, TraceEventKind.PREEMPT, 1)],
        )
        options = SpotServeOptions(adaptive_controller=False)
        _, _, system = build_system(trace, options=options)
        system.submit_requests(FixedArrivals([50.0, 300.0]).generate(trace.duration))
        initial = None
        system.initialize()
        initial = system.current_config
        stats = system.run(until=trace.duration)
        for _, config in stats.config_timeline:
            assert config.pipeline_degree == initial.pipeline_degree
            assert config.tensor_degree == initial.tensor_degree

    def test_on_demand_mixing_allocates_extra_instances(self):
        trace = steady_trace(
            instances=3,
            events=[TraceEvent(120.0, TraceEventKind.PREEMPT, 1)],
        )
        options = SpotServeOptions(allow_on_demand=True)
        simulator, provider, system = build_system(trace, options=options, rate=0.6)
        system.submit_requests(
            GammaArrivals(rate=0.6, cv=2.0, seed=0).generate(trace.duration)
        )
        system.run(until=trace.duration + 600.0)
        markets = {inst.market.value for inst in provider.instances}
        assert "on_demand" in markets

    def test_workload_check_scales_for_demand_surge(self):
        trace = steady_trace(instances=8)
        _, _, system = build_system(trace, model=OPT_6_7B, rate=0.5)
        # Quiet first half, then a sustained surge.
        quiet = [float(t) for t in range(50, 300, 25)]
        surge = [300.0 + 0.45 * i for i in range(1200)]
        system.submit_requests(FixedArrivals(quiet + surge).generate(trace.duration))
        stats = system.run(until=trace.duration + 600.0)
        assert stats.completed_count == len(quiet) + len(surge)
        workload_reconfigs = [r for r in stats.reconfigurations if r.reason == "workload"]
        assert workload_reconfigs


class TestArrivalRateEstimator:
    """The bisect-windowed estimator must pin the old full-scan semantics."""

    @staticmethod
    def reference_rate(system, now, arrival_times):
        """The pre-PR-3 deque-scan implementation, verbatim semantics."""
        from collections import deque

        times = deque(arrival_times)
        short_window = max(4.0 * system.options.workload_check_interval, 120.0)
        long_window = 3.0 * short_window
        while times and times[0] < now - 2 * long_window:
            times.popleft()

        def rate_over(window):
            span = min(window, max(now, 1.0))
            recent = sum(1 for t in times if t >= now - window)
            observed = recent / span
            if now < window:
                observed = max(observed, system.initial_arrival_rate)
            return observed

        observed = max(rate_over(short_window), rate_over(long_window))
        backlog_pressure = system.request_queue.pending / short_window
        return max(observed + backlog_pressure, 1e-3)

    def test_estimates_match_reference_scan(self):
        import numpy as np

        trace = steady_trace(duration=10_000.0)
        simulator, _, system = build_system(trace, rate=0.4)
        rng = np.random.default_rng(17)
        arrivals = np.cumsum(rng.exponential(2.0, 3000)).tolist()
        checkpoints = [0.0, 1.0, 119.9, 120.0, 360.0, 1500.0, 4321.5, 6000.0]
        consumed = 0
        for now in checkpoints:
            while consumed < len(arrivals) and arrivals[consumed] <= now:
                system._arrival_times.append(arrivals[consumed])
                consumed += 1
            simulator.clock.advance_to(now)
            expected = self.reference_rate(system, now, arrivals[:consumed])
            assert system.estimate_arrival_rate() == expected

    def test_estimates_match_reference_with_boundary_ties(self):
        # Arrival timestamps landing exactly on the window boundary must be
        # counted on the same side as the old `t >= now - window` scan.
        trace = steady_trace(duration=10_000.0)
        simulator, _, system = build_system(trace, rate=0.4)
        now = 500.0
        short_window = max(4.0 * system.options.workload_check_interval, 120.0)
        boundary = now - short_window
        times = [boundary - 1.0, boundary, boundary + 1e-9, now - 1.0]
        system._arrival_times.extend(times)
        simulator.clock.advance_to(now)
        assert system.estimate_arrival_rate() == self.reference_rate(system, now, times)

    def test_lazy_trim_keeps_memory_bounded(self):
        trace = steady_trace(duration=100_000.0)
        simulator, _, system = build_system(trace, rate=0.4)
        short_window = max(4.0 * system.options.workload_check_interval, 120.0)
        horizon = 2 * 3.0 * short_window  # the estimator's retention window
        step = 0.5
        now = 0.0
        for i in range(40_000):
            now = step * (i + 1)
            system._arrival_times.append(now)
            if i % 200 == 0:
                simulator.clock.advance_to(now)
                system.estimate_arrival_rate()
        # The kept list holds at most ~2x the retention horizon's arrivals.
        assert len(system._arrival_times) <= 2 * int(horizon / step) + 4096
