"""Metric reference: every metric the benchmark prints, and what it means.

``BENCHMARK.json`` at the repository root is rendered from this module
(``python3 -m perfbench.reference``) and a test checks the two agree.  The
reference adds what that file has no room for: whether a metric is read
off the wall clock, off the simulated clock or off a counter, and, for each
per-layer metric, the end-to-end metric and workloads it should move.

Simulated latencies carry the unit ``sim_s`` (simulated seconds) so they
are never mistaken for wall time.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

#: Command the benchmark is run with, from the root of a checkout.
COMMAND = ["python3", "perfbench/run.py"]

#: Wall seconds one run measures (``--seconds``).
RUN_SECONDS = 25

#: Allowed relative gap between a traced replay's run time and the sum of
#: every span's self time plus the event loop's own time.
ACCOUNTING_TOLERANCE = 0.02

#: Seed used when none is given, and a seed never used while tuning.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1009

WORKLOADS: Dict[str, Dict[str, object]] = {
    "serve": {
        "why": "pinned calm fleet, one preemption wave, low-CV arrivals at ~70% of capacity: "
        "nearly all served, so run time is the per-request path",
        "latency_limit_s": 10.0,
    },
    "churn": {
        "why": "chaos market and fault plan with an offload tier and the cost-aware "
        "autoscaler: the control stack does most of the work",
        "latency_limit_s": 120.0,
    },
    "ingest": {
        "why": "pinned fleet under arrivals far above capacity with deadline-aware "
        "shedding: deep queue, enqueues far outnumber dequeues",
        "latency_limit_s": 80.0,
    },
}

ALL = ("serve", "churn", "ingest")
CHURN = ("churn",)

# (name, unit, better, clock, bound)
END_TO_END: List[Tuple[str, str, str, str, float]] = [
    ("setup_s", "s", "lower", "wall", 0.25),
    ("run_s", "s", "lower", "wall", 0.2),
    ("peak_rss_mb", "MB", "lower", "wall", 0.1),
    ("served_fraction", "ratio", "higher", "sim", 0.05),
    ("slo_attainment", "ratio", "higher", "sim", 0.1),
    ("sim_latency_p50_s", "sim_s", "lower", "sim", 0.2),
    ("sim_latency_p99_s", "sim_s", "lower", "sim", 0.25),
    ("cost_per_mtok_usd", "USD/Mtok", "lower", "sim", 0.1),
]

#: Event types whose handlers the traced run times one by one.
EVENT_TYPES = (
    "REQUEST_ARRIVAL",
    "BATCH_COMPLETION",
    "WORKLOAD_CHECK",
    "PREEMPTION_NOTICE",
    "PREEMPTION_FINAL",
    "ACQUISITION_READY",
    "ZONE_OUTAGE",
    "LAUNCH_FAILURE",
    "RECONFIGURATION",
    "MIGRATION_COMPLETE",
    "GENERIC",
)

#: Event types whose handlers count as reactions (``core.server.react_ms_*``).
REACT_TYPES = (
    "WORKLOAD_CHECK",
    "PREEMPTION_NOTICE",
    "PREEMPTION_FINAL",
    "ACQUISITION_READY",
    "ZONE_OUTAGE",
    "LAUNCH_FAILURE",
)

#: Control-plane event types (their handlers run the control stack).
_CONTROL_EVENTS = REACT_TYPES + ("RECONFIGURATION", "MIGRATION_COMPLETE", "GENERIC")


def _event_metrics() -> List[Tuple[str, str, str, str, str, Tuple[str, ...]]]:
    rows = []
    for event in EVENT_TYPES:
        if event in _CONTROL_EVENTS:
            moves, where = "run_s", CHURN
        else:
            moves, where = "run_s", ("serve", "ingest")
        rows.append((f"sim.engine.{event}.events", "count", "lower", "count", moves, where))
        rows.append((f"sim.engine.{event}.self_us", "us", "lower", "wall", moves, where))
    return rows


# (name, unit, better, clock, moves, workloads)
PER_LAYER: List[Tuple[str, str, str, str, str, Tuple[str, ...]]] = _event_metrics() + [
    ("sim.engine.loop_self_s", "s", "lower", "wall", "run_s", ("serve", "ingest")),
    ("engine.batching.enqueue.calls", "count", "lower", "count", "run_s", ("ingest",)),
    ("engine.batching.next_batch.calls", "count", "lower", "count", "run_s", ("serve",)),
    ("engine.batching.batch_size_mean", "requests", "higher", "sim", "run_s", ("serve",)),
    ("engine.batching.queue_depth_max", "requests", "lower", "sim", "run_s", ("ingest",)),
    ("engine.batching.queue_wait_p50_s", "sim_s", "lower", "sim", "sim_latency_p99_s", ALL),
    ("engine.batching.queue_wait_p99_s", "sim_s", "lower", "sim", "sim_latency_p99_s", ALL),
    ("engine.pipeline.is_busy.reads_per_arrival", "reads", "lower", "count", "run_s", ("ingest",)),
    ("engine.pipeline.start_batch.calls", "count", "lower", "count", "run_s", ("serve",)),
    ("engine.pipeline.interrupt.calls", "count", "lower", "count", "run_s", ("serve",)),
    ("core.admission.admit.calls", "count", "lower", "count", "run_s", ("ingest",)),
    ("core.admission.shed.requests", "count", "lower", "count", "slo_attainment", ("ingest",)),
    ("core.stats.record_completion.self_us", "us", "lower", "wall", "run_s", ("serve",)),
    ("core.controller.propose.calls", "count", "lower", "count", "run_s", CHURN),
    ("core.controller.propose.self_s", "s", "lower", "wall", "run_s", CHURN),
    ("core.controller.propose.ms_p50", "ms", "lower", "wall", "run_s", CHURN),
    ("core.controller.propose.ms_p90", "ms", "lower", "wall", "run_s", CHURN),
    ("core.controller.estimate.calls", "count", "lower", "count", "run_s", CHURN),
    ("core.device_mapper.map_devices.calls", "count", "lower", "count", "run_s", CHURN),
    ("core.device_mapper.map_devices.ms_p50", "ms", "lower", "wall", "run_s", CHURN),
    (
        "core.device_mapper.map_devices.reuse_fraction_mean",
        "ratio", "higher", "sim", "sim_latency_p99_s", CHURN,
    ),
    (
        "core.device_mapper.map_devices.transfer_gb",
        "GB", "lower", "sim", "sim_latency_p99_s", CHURN,
    ),
    ("matching.hungarian.solves", "count", "lower", "count", "run_s", CHURN),
    ("matching.hungarian.rows_mean", "rows", "lower", "count", "run_s", CHURN),
    ("core.migration.plan.calls", "count", "lower", "count", "run_s", CHURN),
    ("core.migration.plan.ms_p50", "ms", "lower", "wall", "run_s", CHURN),
    ("core.migration.plan.memo_hit_ratio", "ratio", "higher", "count", "run_s", CHURN),
    ("core.migration.derive_tiered_plan.calls", "count", "lower", "count", "run_s", CHURN),
    (
        "core.migration.derive_tiered_plan.derived_ratio",
        "ratio", "higher", "count", "served_fraction", CHURN,
    ),
    ("core.autoscaler.Autoscaler.plan.self_s", "s", "lower", "wall", "run_s", CHURN),
    (
        "core.autoscaler.Autoscaler.plan.action_ratio",
        "ratio", "lower", "count", "cost_per_mtok_usd", CHURN,
    ),
    (
        "cloud.provider.request_spot.calls",
        "count", "lower", "count", "cost_per_mtok_usd", CHURN,
    ),
    ("cloud.provider.grant_ratio", "ratio", "higher", "count", "cost_per_mtok_usd", CHURN),
    ("cloud.provider.release.calls", "count", "lower", "count", "cost_per_mtok_usd", CHURN),
    ("core.server.react_ms_p50", "ms", "lower", "wall", "run_s", CHURN),
    ("core.server.react_ms_p90", "ms", "lower", "wall", "run_s", CHURN),
    ("core.server.tokens_recomputed_ratio", "ratio", "lower", "sim", "served_fraction", CHURN),
    ("core.server.requests_rerouted", "count", "lower", "sim", "sim_latency_p99_s", CHURN),
    ("core.server.migration_fallbacks", "count", "lower", "sim", "served_fraction", CHURN),
    ("core.server.acquisition_retries", "count", "lower", "sim", "served_fraction", CHURN),
    ("core.server.stall_s", "sim_s", "lower", "sim", "sim_latency_p99_s", CHURN),
    ("llm.costmodel.cache_hit_ratio", "ratio", "higher", "count", "setup_s", ALL),
    ("setup.import_s", "s", "lower", "wall", "setup_s", ALL),
    ("setup.build_s", "s", "lower", "wall", "setup_s", ALL),
    ("setup.initialize_s", "s", "lower", "wall", "setup_s", ALL),
    ("bench.host_slowdown", "ratio", "lower", "wall", "run_s", ALL),
    ("trace.overhead_ratio", "ratio", "lower", "wall", "run_s", ALL),
    ("trace.control_share", "ratio", "lower", "wall", "run_s", CHURN),
    ("trace.dataplane_share", "ratio", "lower", "wall", "run_s", ("serve", "ingest")),
    ("trace.accounting_error_ratio", "ratio", "lower", "wall", "run_s", ALL),
]

#: Units by metric name, for printing.
UNITS: Dict[str, str] = {row[0]: row[1] for row in END_TO_END + PER_LAYER}


def benchmark_json() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": spec["why"]} for name, spec in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, _clock, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _clock, _moves, _where in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
