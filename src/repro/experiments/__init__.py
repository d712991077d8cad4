"""Experiment harness: runners, metrics, ablation presets and scenarios."""

from .ablation import ABLATION_ORDER, ablation_options
from .metrics import REPORTED_PERCENTILES, LatencyStats
from .policy_bench import (
    BENCH_SCENARIOS,
    POLICY_VARIANTS,
    run_policy_benchmark,
)
from .runner import (
    DEFAULT_DRAIN_TIME,
    ExperimentResult,
    MultiTenantResult,
    run_comparison,
    run_multi_tenant_experiment,
    run_scenario_experiment,
    run_serving_experiment,
)
from .scenarios import (
    COMPARED_SYSTEMS,
    STABLE_MODELS,
    STABLE_TRACES,
    MultiTenantScenario,
    MultiZoneScenario,
    Scenario,
    fluctuating_workload_scenario,
    heavy_traffic_scenario,
    multi_tenant_scenario,
    multi_zone_fluctuating_scenario,
    stable_workload_scenario,
    zone_outage_scenario,
)

__all__ = [
    "ABLATION_ORDER",
    "BENCH_SCENARIOS",
    "COMPARED_SYSTEMS",
    "DEFAULT_DRAIN_TIME",
    "ExperimentResult",
    "LatencyStats",
    "MultiTenantResult",
    "MultiTenantScenario",
    "MultiZoneScenario",
    "POLICY_VARIANTS",
    "REPORTED_PERCENTILES",
    "STABLE_MODELS",
    "STABLE_TRACES",
    "Scenario",
    "ablation_options",
    "fluctuating_workload_scenario",
    "heavy_traffic_scenario",
    "multi_tenant_scenario",
    "multi_zone_fluctuating_scenario",
    "run_comparison",
    "run_multi_tenant_experiment",
    "run_policy_benchmark",
    "run_scenario_experiment",
    "run_serving_experiment",
    "stable_workload_scenario",
    "zone_outage_scenario",
]
