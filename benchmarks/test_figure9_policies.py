"""Autoscaling-policy head-to-head benchmark (Figure-8-style, policies).

The paper compares serving *systems* head to head; this benchmark compares
the reproduction's autoscaling *policies* the same way: every policy variant
(target-utilization, queue-latency, cost-aware, and cost-aware with the
inverted priciest-zone arbitrage) replays the identical seeded workload
through the three canonical multi-zone scenarios -- fluctuating,
heavy-traffic and the zone-outage fault injection -- and the table reports
monetary cost, mean/p99 latency and requests left unserved per cell.

It also renders the overload-control sweep: every admission variant (none,
queue-cap, deadline-aware, token-bucket) through the ``overload`` scenario
on a pinned fleet, where cost is byte-identical across variants and the
acceptance claim holds -- deadline-aware's p99 is strictly below the
unbounded queue's at equal cost.

The same sweep runs headlessly via ``benchmarks/perf/run_perf.py
--policy-benchmark``, which embeds the rows into ``BENCH_adaptation.json``
(uploaded as a CI artifact).
"""

import json
import pathlib

import pytest

from conftest import FIGURE_WORKERS, format_row, write_result
from repro.experiments.policy_bench import (
    ADMISSION_VARIANTS,
    BENCH_SCENARIOS,
    POLICY_VARIANTS,
    run_policy_benchmark,
)

#: Figure-reproduction benchmarks are slow; deselected from tier-1 runs.
pytestmark = pytest.mark.slow

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def test_figure9_policy_head_to_head(benchmark):
    payload = benchmark.pedantic(
        lambda: run_policy_benchmark(workers=FIGURE_WORKERS),
        rounds=1,
        iterations=1,
    )
    rows = payload["rows"]

    # Acceptance: per-policy cost / p99 / drops for >= 3 policies x 3 scenarios.
    assert len(payload["policies"]) >= 3
    assert len(payload["scenarios"]) >= 3
    assert len(rows) == len(payload["policies"]) * len(payload["scenarios"])
    for row in rows:
        assert row["total_cost"] > 0
        assert row["p99_latency"] is None or row["p99_latency"] > 0
        assert row["requests_unserved"] >= 0
    # The zone-outage cells really injected the fault, and SpotServe's
    # conservation guarantee held for every policy.
    outage_rows = [row for row in rows if row["scenario"] == "zone-outage"]
    assert outage_rows and all(row["zone_outages"] == 1 for row in outage_rows)

    widths = (14, 20, 9, 8, 9, 9, 9, 7)
    lines = ["=== autoscaling policies head to head (identical seeded workloads)"]
    header = ["scenario", "policy", "cost $", "avg s", "p99 s", "done", "unserved", "scales"]
    lines.append(format_row(header, widths))
    for row in rows:
        lines.append(
            format_row(
                [
                    row["scenario"],
                    row["policy"],
                    row["total_cost"],
                    row["avg_latency"] if row["avg_latency"] is not None else float("nan"),
                    row["p99_latency"] if row["p99_latency"] is not None else float("nan"),
                    row["completed_requests"],
                    row["requests_unserved"],
                    row["autoscale_actions"],
                ],
                widths,
            )
        )
    lines.append("")
    lines.append(
        f"policies: {', '.join(POLICY_VARIANTS)}  |  scenarios: {', '.join(BENCH_SCENARIOS)}"
    )

    # Overload-control sweep: pinned fleet, so cost is byte-identical and
    # the admission policies differentiate on latency/accounting alone.
    admission_rows = payload["admission_rows"]
    assert len(admission_rows) == len(ADMISSION_VARIANTS)
    by_admission = {row["admission"]: row for row in admission_rows}
    assert len({row["total_cost"] for row in admission_rows}) == 1
    assert (
        by_admission["deadline-aware"]["p99_latency"]
        < by_admission["none"]["p99_latency"]
    )
    assert by_admission["deadline-aware"]["requests_shed"] > 0
    assert by_admission["queue-cap"]["requests_rejected"] > 0
    assert by_admission["token-bucket"]["requests_rejected"] > 0

    lines.append("")
    lines.append("=== overload control (pinned fleet, identical cost by construction)")
    adm_widths = (14, 20, 9, 8, 9, 9, 9, 7)
    lines.append(
        format_row(
            ["scenario", "admission", "cost $", "avg s", "p99 s", "done", "rejected", "shed"],
            adm_widths,
        )
    )
    for row in admission_rows:
        lines.append(
            format_row(
                [
                    row["scenario"],
                    row["admission"],
                    row["total_cost"],
                    row["avg_latency"] if row["avg_latency"] is not None else float("nan"),
                    row["p99_latency"] if row["p99_latency"] is not None else float("nan"),
                    row["completed_requests"],
                    row["requests_rejected"],
                    row["requests_shed"],
                ],
                adm_widths,
            )
        )
    write_result("figure9_policies", lines)

    # Also drop the raw rows next to the table so they can be diffed / fed
    # into plotting without re-running the sweep.
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "figure9_policies.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
