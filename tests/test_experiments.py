"""Tests for the experiment harness: metrics, runner, scenarios, ablations."""

import math
import re

import numpy as np
import pytest

from repro.baselines.rerouting import RequestReroutingSystem
from repro.core.server import SpotServeOptions, SpotServeSystem
from repro.cloud.provider import CloudProvider
from repro.cloud.trace import AvailabilityTrace, TraceEvent, TraceEventKind, get_trace
from repro.experiments.ablation import ABLATED_SWITCHES, ABLATION_ORDER, ablation_options
from repro.experiments.metrics import REPORTED_PERCENTILES, LatencyStats
from repro.experiments.runner import run_comparison, run_serving_experiment
from repro.experiments.scenarios import (
    COMPARED_SYSTEMS,
    DEFAULT_WORKLOAD_SEEDS,
    STABLE_MODELS,
    STABLE_TRACES,
    fluctuating_workload_scenario,
    heavy_traffic_scenario,
    stable_workload_scenario,
)
from repro.llm.spec import OPT_6_7B
from repro.sim.engine import Simulator
from repro.workload.arrival import FixedArrivals, GammaArrivals


class TestLatencyStats:
    def test_basic_statistics(self):
        stats = LatencyStats.from_latencies([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.p99 <= stats.maximum
        assert stats.percentiles[90] <= stats.p99

    def test_reported_percentiles_match_paper_axis(self):
        assert REPORTED_PERCENTILES == (90, 95, 96, 97, 98, 99)
        stats = LatencyStats.from_latencies(range(1, 101))
        assert set(stats.percentiles) == set(REPORTED_PERCENTILES)

    def test_percentile_properties_match_numpy(self):
        values = [0.5, 3.0, 1.25, 9.0, 2.0, 7.5, 4.0]
        stats = LatencyStats.from_latencies(values)
        names = [
            name
            for name, attr in vars(LatencyStats).items()
            if re.fullmatch(r"p\d+", name) and isinstance(attr, property)
        ]
        assert names
        for name in names:
            assert getattr(stats, name) == np.percentile(values, int(name[1:])), name

    def test_empty_input_gives_nans(self):
        stats = LatencyStats.from_latencies([])
        assert stats.count == 0
        assert math.isnan(stats.mean)
        assert math.isnan(stats.p99)


def tiny_trace():
    return AvailabilityTrace(
        name="tiny",
        initial_instances=6,
        events=[TraceEvent(150.0, TraceEventKind.PREEMPT, 1)],
        duration=400.0,
    )


class TestRunner:
    def test_experiment_result_fields(self):
        result = run_serving_experiment(
            SpotServeSystem,
            "GPT-20B",
            tiny_trace(),
            FixedArrivals([50.0, 120.0, 200.0]),
            drain_time=400.0,
        )
        assert result.system_name == "SpotServe"
        assert result.model_name == "GPT-20B"
        assert result.submitted_requests == 3
        assert result.completed_requests == 3
        assert result.completion_ratio == pytest.approx(1.0)
        assert result.total_cost > 0
        assert result.tokens_generated >= 3 * 128
        assert result.cost_per_token > 0

    def test_runner_is_deterministic(self):
        def run_once():
            return run_serving_experiment(
                SpotServeSystem,
                "GPT-20B",
                tiny_trace(),
                GammaArrivals(rate=0.25, cv=2.0, seed=5),
                drain_time=400.0,
            )

        a, b = run_once(), run_once()
        assert a.latency.mean == pytest.approx(b.latency.mean)
        assert a.total_cost == pytest.approx(b.total_cost)

    def test_comparison_replays_identical_workload(self):
        results = run_comparison(
            {"SpotServe": SpotServeSystem, "Rerouting": RequestReroutingSystem},
            "GPT-20B",
            tiny_trace(),
            GammaArrivals(rate=0.25, cv=2.0, seed=5),
            drain_time=400.0,
        )
        assert set(results) == {"SpotServe", "Rerouting"}
        assert (
            results["SpotServe"].submitted_requests
            == results["Rerouting"].submitted_requests
        )

    def test_parallel_comparison_matches_serial(self):
        # Serial and pooled sweeps both stream the workload from the seeded
        # process; each must match a run that schedules the same requests
        # up front, digest for digest.
        systems = {"SpotServe": SpotServeSystem, "Rerouting": RequestReroutingSystem}
        arrivals = GammaArrivals(rate=0.25, cv=2.0, seed=5)
        serial = run_comparison(
            systems, "GPT-20B", tiny_trace(), arrivals, drain_time=400.0
        )
        parallel = run_comparison(
            systems, "GPT-20B", tiny_trace(), arrivals, drain_time=400.0, workers=2
        )
        assert set(parallel) == set(serial) == set(systems)
        for name, system_cls in systems.items():
            trace = tiny_trace()
            scheduled = run_serving_experiment(
                system_cls,
                "GPT-20B",
                trace,
                arrivals,
                drain_time=400.0,
                requests=arrivals.generate(trace.duration),
            )
            for result in (serial[name], parallel[name]):
                assert result.stats.summary_text() == scheduled.stats.summary_text()
                assert result.submitted_requests == scheduled.submitted_requests
                assert result.total_cost == scheduled.total_cost


class TestScenarios:
    def test_stable_scenarios_cover_the_figure6_grid(self):
        assert set(STABLE_MODELS) == {"OPT-6.7B", "GPT-20B", "LLaMA-30B"}
        assert set(STABLE_TRACES) == {"AS", "BS"}
        assert set(COMPARED_SYSTEMS) == {"SpotServe", "Reparallelization", "Rerouting"}

    def test_scenario_uses_paper_rates_and_seeds(self):
        scenario = stable_workload_scenario("GPT-20B", "BS")
        assert scenario.arrival_rate == pytest.approx(0.35)
        assert scenario.trace.name == "BS"
        assert scenario.seed == DEFAULT_WORKLOAD_SEEDS["GPT-20B"]
        assert not scenario.allow_on_demand
        assert scenario.options().allow_on_demand is False

    def test_plus_o_variant_enables_on_demand(self):
        scenario = stable_workload_scenario("GPT-20B", "AS", allow_on_demand=True)
        assert scenario.options().allow_on_demand is True

    def test_scenario_duration_override(self):
        scenario = stable_workload_scenario("GPT-20B", "AS", duration=300.0)
        assert scenario.duration == 300.0
        assert all(event.time < 300.0 for event in scenario.trace.events)

    def test_fluctuating_scenario(self):
        scenario, process = fluctuating_workload_scenario()
        assert scenario.allow_on_demand
        rates = [process.rate_at(t) for t in (0.0, scenario.duration / 2, scenario.duration - 1)]
        assert max(rates) > min(rates)

    def test_heavy_traffic_scenario_shape(self):
        scenario, process = heavy_traffic_scenario(target_requests=100_000)
        assert scenario.max_instances > 14  # scaled-up market
        assert scenario.retain_completed_requests is False
        assert scenario.options().retain_completed_requests is False
        # Expected arrivals overshoot the target by the safety margin.
        expected = process.rate_at(0.0)  # profile exists and is positive
        assert expected > 0
        assert sum(zone.capacity for zone in scenario.zones) >= scenario.max_instances

    def test_heavy_traffic_realises_target_request_count(self):
        # Counting the streamed draws is cheap (no Request objects); the
        # rescale margin must put the realised count at or above the target.
        scenario, process = heavy_traffic_scenario(target_requests=20_000, duration=600.0)
        assert process.count_arrivals(600.0) >= 20_000

    def test_workload_realisation_matches_nominal_rate(self):
        """The representative seeds keep the realized request count within
        ~12% of rate * duration for every model."""
        for model in STABLE_MODELS:
            scenario = stable_workload_scenario(model, "AS")
            count = len(scenario.arrival_process().arrival_times(scenario.duration))
            nominal = scenario.arrival_rate * scenario.duration
            assert abs(count - nominal) / nominal < 0.12


class TestAblation:
    def test_ablation_presets_are_cumulative(self):
        presets = ablation_options()
        assert list(presets) == ABLATION_ORDER
        assert presets["SpotServe"].adaptive_controller
        assert not presets["- Controller"].adaptive_controller
        assert not presets["- Migration Planner"].memory_optimized_migration
        assert not presets["- Migration Planner"].adaptive_controller
        assert not presets["- Interruption Arranger"].stateful_recovery
        assert not presets["- Device Mapper"].optimal_device_mapping
        # Every preset serves on spot instances only.
        assert not any(options.allow_on_demand for options in presets.values())
        # One switch per Figure 9 component: each step turns exactly one
        # more off and keeps everything the previous step turned off.
        for step, label in enumerate(ABLATION_ORDER):
            for index, flag in enumerate(ABLATED_SWITCHES):
                assert getattr(presets[label], flag) == (index >= step), (label, flag)

    def test_each_component_switch_drives_its_component(self):
        # optimal_device_mapping picks Kuhn-Munkres (and with it the
        # hierarchical matching), memory_optimized_migration the planner's
        # memory-bounded order (and with it the progressive resume).
        trace = AvailabilityTrace(name="flat", initial_instances=4, events=[], duration=60.0)
        for preset in ablation_options().values():
            simulator = Simulator()
            provider = CloudProvider(simulator, trace)
            system = SpotServeSystem(simulator, provider, OPT_6_7B, options=preset)
            mapper, planner = system.device_mapper, system.migration_planner
            assert mapper.use_optimal_matching == preset.optimal_device_mapping
            assert planner.memory_optimized == preset.memory_optimized_migration
