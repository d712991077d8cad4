"""Figure 6: end-to-end serving latency on stable (bursty) workloads.

Regenerates the full grid of Figure 6: three models (OPT-6.7B, GPT-20B,
LLaMA-30B), the spot-only traces AS and BS plus the on-demand-mixing
variants AS+O and BS+O, and the three systems (SpotServe, Reparallelization,
Rerouting).  For every cell the average and tail latencies (P90-P99) are
reported, together with SpotServe's improvement factor on the P99 tail, which
is the paper's headline metric (2.4x - 9.1x).
"""

import pytest

from conftest import FIGURE_WORKERS, format_row, write_result
from repro.experiments.metrics import REPORTED_PERCENTILES
from repro.experiments.runner import run_comparison
from repro.experiments.scenarios import (
    COMPARED_SYSTEMS,
    STABLE_MODELS,
    STABLE_TRACES,
    stable_workload_scenario,
)

#: Figure-reproduction benchmarks are slow; deselected from tier-1 runs.
pytestmark = pytest.mark.slow


def run_cell(model_name, trace_name, allow_on_demand):
    scenario = stable_workload_scenario(model_name, trace_name, allow_on_demand=allow_on_demand)
    options = {name: scenario.options() for name in COMPARED_SYSTEMS}
    return run_comparison(
        COMPARED_SYSTEMS,
        scenario.model_name,
        scenario.trace,
        scenario.arrival_process(),
        options_by_system=options,
        workers=FIGURE_WORKERS,
    )


def run_grid():
    grid = {}
    for model_name in STABLE_MODELS:
        for trace_name in STABLE_TRACES:
            for allow_on_demand in (False, True):
                label = f"{model_name} on {trace_name}{'+O' if allow_on_demand else ''}"
                grid[label] = run_cell(model_name, trace_name, allow_on_demand)
    return grid


def test_figure6_end_to_end(benchmark):
    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    widths = (20, 6, 8, 8, 8, 8, 8, 8, 8, 9)
    lines = []
    spotserve_wins = 0
    cells = 0
    for label, results in grid.items():
        lines.append(f"=== {label}")
        header = ["system", "done", "avg"] + [f"p{p}" for p in REPORTED_PERCENTILES] + ["vs SS p99"]
        lines.append(format_row(header, widths))
        spotserve_p99 = results["SpotServe"].latency.p99
        for name, result in results.items():
            stats = result.latency
            row = [
                name,
                result.completed_requests,
                stats.mean,
            ] + [stats.percentiles[p] for p in REPORTED_PERCENTILES] + [
                stats.p99 / spotserve_p99 if spotserve_p99 > 0 else float("nan")
            ]
            lines.append(format_row(row, widths))
        lines.append("")

        cells += 1
        p99s = {name: result.latency.p99 for name, result in results.items()}
        if all(p99s["SpotServe"] <= value + 1e-9 for value in p99s.values()):
            spotserve_wins += 1

    lines.append(f"SpotServe has the lowest P99 tail latency in {spotserve_wins}/{cells} cells")
    write_result("figure6_end_to_end", lines)

    # Shape checks: SpotServe wins the P99 tail in (nearly) every cell and the
    # improvement over the baselines is substantial in aggregate.
    assert spotserve_wins >= cells - 1
    factors = []
    for results in grid.values():
        spotserve = results["SpotServe"].latency.p99
        for name, result in results.items():
            if name != "SpotServe" and spotserve > 0:
                factors.append(result.latency.p99 / spotserve)
    assert max(factors) > 2.0
    assert sum(factors) / len(factors) > 1.3
