"""Figure 9: ablation of SpotServe's components on GPT-20B.

Starting from the full system, the parallelization controller, the migration
planner, the interruption arranger and the device mapper are disabled one by
one (cumulatively, matching the figure) and the resulting average and P99
latencies on traces AS and BS are reported, normalised to full SpotServe.
"""

import pytest

from conftest import format_row, write_result
from repro.core.server import SpotServeSystem
from repro.experiments.ablation import ABLATION_ORDER, ablation_options
from repro.experiments.runner import run_serving_experiment
from repro.experiments.scenarios import stable_workload_scenario
from repro.workload.request import Request

#: Figure-reproduction benchmarks are slow; deselected from tier-1 runs.
pytestmark = pytest.mark.slow

MODEL = "GPT-20B"


def run_ablation(trace_name):
    scenario = stable_workload_scenario(MODEL, trace_name)
    template = scenario.arrival_process().generate(scenario.duration)
    results = {}
    for label, options in ablation_options().items():
        requests = [
            Request(
                arrival_time=r.arrival_time,
                input_tokens=r.input_tokens,
                output_tokens=r.output_tokens,
            )
            for r in template
        ]
        results[label] = run_serving_experiment(
            SpotServeSystem,
            scenario.model_name,
            scenario.trace,
            scenario.arrival_process(),
            options=options,
            requests=requests,
        )
    return results


def test_figure9_ablation(benchmark):
    def build():
        return {trace: run_ablation(trace) for trace in ("AS", "BS")}

    cells = benchmark.pedantic(build, rounds=1, iterations=1)

    widths = (26, 9, 11, 9, 11)
    lines = [format_row(["variant", "avg(s)", "avg ratio", "p99(s)", "p99 ratio"], widths)]
    for trace, results in cells.items():
        lines.append(f"--- GPT-20B on {trace}")
        base = results["SpotServe"]
        for label in ABLATION_ORDER:
            result = results[label]
            lines.append(
                format_row(
                    [
                        label,
                        result.latency.mean,
                        result.latency.mean / base.latency.mean,
                        result.latency.p99,
                        result.latency.p99 / base.latency.p99,
                    ],
                    widths,
                )
            )
    write_result("figure9_ablation", lines)

    for trace, results in cells.items():
        base = results["SpotServe"]
        fully_ablated = results["- Device Mapper"]
        # Removing every optimisation must hurt the tail noticeably (the paper
        # reports 1.61x on AS and 3.41x on BS).
        assert fully_ablated.latency.p99 > 1.2 * base.latency.p99
        # No single ablation step should make the system better than the full
        # SpotServe by more than noise.
        for label in ABLATION_ORDER[1:]:
            assert results[label].latency.p99 >= 0.9 * base.latency.p99
