"""Figure 8: auto-scaling under the fluctuating (MAF-like) workload.

Regenerates the fluctuating-workload study: a rescaled MAF-like arrival
profile replayed against the A'S+O and B'S+O traces (on-demand mixing
enabled) for all three systems.  Reports the latency ladder (Fig. 8e/8f), the
per-request latency timeline (Fig. 8g/8h) and the sequence of parallel
configurations SpotServe selects over time.
"""

import pytest

from conftest import FIGURE_WORKERS, format_row, write_result
from repro.experiments.metrics import REPORTED_PERCENTILES
from repro.experiments.runner import run_comparison
from repro.experiments.scenarios import COMPARED_SYSTEMS, fluctuating_workload_scenario

#: Figure-reproduction benchmarks are slow; deselected from tier-1 runs.
pytestmark = pytest.mark.slow


def run_fluctuating(trace_name):
    scenario, process = fluctuating_workload_scenario("GPT-20B", trace_name)
    options = {name: scenario.options() for name in COMPARED_SYSTEMS}
    return run_comparison(
        COMPARED_SYSTEMS,
        scenario.model_name,
        scenario.trace,
        process,
        duration=scenario.duration,
        options_by_system=options,
        workers=FIGURE_WORKERS,
    )


def test_figure8_fluctuating_workload(benchmark):
    def build():
        return {name: run_fluctuating(name) for name in ("A'S", "B'S")}

    cells = benchmark.pedantic(build, rounds=1, iterations=1)

    widths = (20, 6, 8, 8, 8, 8, 8, 8, 8)
    lines = []
    for label, results in cells.items():
        lines.append(f"=== GPT-20B on {label}+O (rescaled MAF workload)")
        header = ["system", "done", "avg"] + [f"p{p}" for p in REPORTED_PERCENTILES]
        lines.append(format_row(header, widths))
        for name, result in results.items():
            stats = result.latency
            lines.append(
                format_row(
                    [name, result.completed_requests, stats.mean]
                    + [stats.percentiles[p] for p in REPORTED_PERCENTILES],
                    widths,
                )
            )
        lines.append("")
        spotserve = results["SpotServe"]
        lines.append("SpotServe configuration timeline (time -> (D, P, M, B)):")
        for time, config in spotserve.stats.config_timeline:
            lines.append(f"  t={time:7.1f}s  {config}")
        lines.append("")
        lines.append("SpotServe per-request latency timeline (arrival -> latency), 1 in 10:")
        for index, (arrival, latency) in enumerate(spotserve.stats.request_timeline()):
            if index % 10 == 0:
                lines.append(f"  arrival={arrival:7.1f}s  latency={latency:7.1f}s")
        lines.append("")
    write_result("figure8_fluctuating", lines)

    for label, results in cells.items():
        spotserve = results["SpotServe"]
        # SpotServe keeps the lowest or tied-lowest tail latency and adapts its
        # configuration at least once during the surge.
        for name, result in results.items():
            assert spotserve.latency.p99 <= result.latency.p99 * 1.05
        assert len({config.without_batch() for _, config in spotserve.stats.config_timeline}) >= 1
        assert spotserve.completion_ratio == pytest.approx(1.0)
