"""End-to-end integration tests reproducing the paper's headline claims.

These tests run the full serving comparison on shortened versions of the
paper's scenarios and assert the *shape* of the results: who wins, roughly by
how much, and that cost savings materialise.  The full-length reproductions
live in ``benchmarks/``.
"""

import pytest

from repro.core.server import SpotServeOptions, SpotServeSystem
from repro.experiments.runner import run_comparison, run_serving_experiment
from repro.experiments.scenarios import COMPARED_SYSTEMS, stable_workload_scenario
from repro.cloud.instance import Market
from repro.cloud.trace import get_trace
from repro.llm.spec import GPT_20B
from repro.sim.engine import Simulator
from repro.workload.arrival import GammaArrivals


@pytest.fixture(scope="module")
def gpt_bs_results():
    """GPT-20B on the harsher BS trace, all three systems, shared workload."""
    scenario = stable_workload_scenario("GPT-20B", "BS")
    return run_comparison(
        COMPARED_SYSTEMS,
        scenario.model_name,
        scenario.trace,
        scenario.arrival_process(),
        options_by_system={"SpotServe": scenario.options()},
    )


class TestFigure6Shape:
    def test_every_system_serves_every_request(self, gpt_bs_results):
        for result in gpt_bs_results.values():
            assert result.completion_ratio == pytest.approx(1.0)

    def test_spotserve_has_the_lowest_tail_latency(self, gpt_bs_results):
        spotserve = gpt_bs_results["SpotServe"]
        for name, result in gpt_bs_results.items():
            if name == "SpotServe":
                continue
            assert spotserve.latency.p99 <= result.latency.p99
            assert spotserve.latency.mean <= result.latency.mean

    def test_improvement_factors_are_significant(self, gpt_bs_results):
        """The paper reports 1.33x-9.13x P99 improvements; on the harsher BS
        trace the reproduction should show at least ~1.3x against both
        baselines."""
        spotserve = gpt_bs_results["SpotServe"].latency.p99
        repar = gpt_bs_results["Reparallelization"].latency.p99
        rerouting = gpt_bs_results["Rerouting"].latency.p99
        assert repar / spotserve > 1.3
        assert rerouting / spotserve > 1.2

    def test_spotserve_reconfigures_instead_of_restarting(self, gpt_bs_results):
        spotserve = gpt_bs_results["SpotServe"]
        repar = gpt_bs_results["Reparallelization"]
        assert spotserve.stats.total_stall_time < repar.stats.total_stall_time
        reused = sum(r.reused_bytes for r in spotserve.stats.reconfigurations)
        assert reused > 0


class TestFigure7Shape:
    def test_spot_serving_is_cheaper_than_on_demand(self):
        """Figure 7: serving on spot instances costs roughly half as much per
        token as an on-demand fleet of the same size (1.9 vs 3.9 $/h)."""
        scenario = stable_workload_scenario("GPT-20B", "AS", duration=600.0)
        spot = run_serving_experiment(
            SpotServeSystem,
            scenario.model_name,
            scenario.trace,
            scenario.arrival_process(),
            duration=scenario.duration,
            options=scenario.options(),
        )

        simulator = Simulator()
        od_trace = get_trace("AS")
        od_result = run_serving_experiment(
            SpotServeSystem,
            scenario.model_name,
            scenario.trace,
            scenario.arrival_process(),
            duration=scenario.duration,
            trace_market=Market.ON_DEMAND,
        )
        assert spot.total_cost < od_result.total_cost
        savings = 1.0 - spot.total_cost / od_result.total_cost
        assert savings > 0.3

    def test_cost_per_token_is_finite_and_small(self):
        scenario = stable_workload_scenario("GPT-20B", "AS", duration=600.0)
        result = run_serving_experiment(
            SpotServeSystem,
            scenario.model_name,
            scenario.trace,
            scenario.arrival_process(),
            duration=scenario.duration,
        )
        assert 0 < result.cost_per_token < 0.01


class TestOnDemandMixing:
    def test_plus_o_traces_reduce_tail_latency_or_match(self):
        """Mixing on-demand instances (the +O traces) should not hurt, and
        typically helps the tail because capacity recovers faster."""
        base = stable_workload_scenario("GPT-20B", "BS")
        spot_only = run_serving_experiment(
            SpotServeSystem,
            base.model_name,
            base.trace,
            base.arrival_process(),
            options=SpotServeOptions(allow_on_demand=False),
        )
        mixed = run_serving_experiment(
            SpotServeSystem,
            base.model_name,
            base.trace,
            base.arrival_process(),
            options=SpotServeOptions(allow_on_demand=True),
        )
        assert mixed.latency.p99 <= spot_only.latency.p99 * 1.1
        assert mixed.total_cost > 0.0
