"""Tests for the adaptive configuration optimizer (Algorithm 1)."""

import pytest

from repro.core.config import ConfigurationSpace, ParallelConfig
from repro.core.controller import LATENCY_TIE_MARGIN, ParallelizationController
from repro.llm.costmodel import LatencyModel
from repro.llm.memory import MemoryModel
from repro.llm.spec import GPT_20B, OPT_6_7B


def make_controller(model=GPT_20B, slo=None):
    latency_model = LatencyModel(model)
    memory_model = MemoryModel(model)
    space = ConfigurationSpace(model, memory_model)
    return ParallelizationController(space, latency_model, slo_latency=slo)


class TestEstimates:
    def test_estimate_fields_consistent(self):
        controller = make_controller()
        config = ParallelConfig(2, 3, 4, 8)
        estimate = controller.estimate(config, arrival_rate=0.35)
        assert estimate.config is config
        assert estimate.execution_latency > 0
        assert estimate.request_latency >= estimate.execution_latency
        assert estimate.num_instances == 6

    def test_overloaded_config_gets_infinite_latency(self):
        controller = make_controller()
        # One small pipeline cannot sustain 1 request/s for GPT-20B.
        estimate = controller.estimate(ParallelConfig(1, 3, 4, 1), arrival_rate=1.0)
        assert estimate.request_latency == float("inf")
        assert not estimate.meets_rate

    def test_zero_rate_gives_pure_execution_latency(self):
        controller = make_controller()
        config = ParallelConfig(1, 3, 4, 1)
        estimate = controller.estimate(config, arrival_rate=0.0)
        assert estimate.request_latency == pytest.approx(estimate.execution_latency)


class TestAlgorithm1:
    def test_latency_objective_when_rate_sustainable(self):
        controller = make_controller()
        decision = controller.propose(available_instances=12, arrival_rate=0.35)
        assert decision is not None
        assert decision.objective == "latency"
        assert decision.estimate.throughput >= 0.35
        assert decision.config.num_instances(4) <= 12

    def test_throughput_objective_when_rate_unreachable(self):
        controller = make_controller()
        # 3 instances (12 GPUs) cannot sustain 2 req/s of GPT-20B.
        decision = controller.propose(available_instances=3, arrival_rate=2.0)
        assert decision is not None
        assert decision.objective == "throughput"
        best = max(
            controller.estimate(c, 2.0).throughput
            for c in controller.config_space.feasible_configs(3)
        )
        assert decision.estimate.throughput == pytest.approx(best, rel=0.06)

    def test_no_feasible_configuration_returns_none(self):
        controller = make_controller()
        assert controller.propose(available_instances=0, arrival_rate=0.35) is None
        # GPT-20B does not fit on a single 4-GPU instance.
        assert controller.propose(available_instances=1, arrival_rate=0.35) is None

    def test_needs_allocation_when_demand_exceeds_fleet(self):
        controller = make_controller()
        decision = controller.propose(
            available_instances=3, arrival_rate=1.0, max_instances=10
        )
        assert decision is not None
        if decision.config.num_instances(4) > 3:
            assert decision.instance_delta > 0

    def test_can_release_when_overprovisioned(self):
        controller = make_controller(OPT_6_7B)
        decision = controller.propose(available_instances=12, arrival_rate=0.05)
        assert decision is not None
        assert decision.config.num_instances(4) <= 12
        if decision.config.num_instances(4) < 12:
            assert decision.instance_delta < 0

    def test_tie_break_prefers_fewer_instances(self):
        controller = make_controller()
        decision = controller.propose(available_instances=12, arrival_rate=0.35)
        assert decision is not None
        # Every sustaining configuration within the tie margin of the winner
        # must use at least as many instances.
        estimates = [
            controller.estimate(c, 0.35)
            for c in controller.config_space.feasible_configs(12)
        ]
        sustaining = [e for e in estimates if e.throughput >= 0.35 and e.meets_rate]
        threshold = decision.estimate.request_latency * (1 + LATENCY_TIE_MARGIN)
        near_ties = [e for e in sustaining if e.request_latency <= threshold]
        assert decision.estimate.num_instances <= min(e.num_instances for e in near_ties)

    def test_higher_rate_needs_at_least_as_much_throughput(self):
        controller = make_controller()
        low = controller.propose(available_instances=12, arrival_rate=0.2)
        high = controller.propose(available_instances=12, arrival_rate=0.6)
        assert low is not None and high is not None
        assert high.estimate.throughput >= 0.6
        assert low.estimate.throughput >= 0.2

    def test_slo_constrains_choice(self):
        lenient = make_controller()
        strict = make_controller(slo=20.0)
        base = lenient.propose(available_instances=12, arrival_rate=0.35)
        constrained = strict.propose(available_instances=12, arrival_rate=0.35)
        assert base is not None and constrained is not None
        if constrained.objective == "latency":
            assert constrained.estimate.request_latency <= 20.0
