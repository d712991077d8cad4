"""One replay of one workload, meant to run in a fresh process.

``python3 -m perfbench.replay --workload serve --seed 3 [--trace]`` builds
the workload from the public ``repro`` API, runs it once and prints one
JSON object: set-up and run times (scaled to a reference host by
:mod:`perfbench.calibrate`, and unscaled), peak memory, the reaction-handler
samples, the simulated outcome (counts, latencies, cost, a digest of
``extended_summary_text()``), the correctness gate's violations and, with
``--trace``, the per-layer metrics of :mod:`perfbench.tracer`.

The wiring mirrors ``repro.experiments.runner.run_serving_experiment``; it
is spelled out here so set-up can be timed phase by phase and the event
hooks can be installed before the serving system registers its handlers.
"""

from __future__ import annotations

import time

_LOADED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import numpy as np  # noqa: E402

import repro.core.device_mapper as device_mapper_module  # noqa: E402
from repro.cloud.provider import CloudProvider  # noqa: E402
from repro.core.server import SpotServeSystem  # noqa: E402
from repro.engine.pipeline import InferencePipeline  # noqa: E402
from repro.faults.injector import FaultInjector  # noqa: E402
from repro.llm.spec import get_model  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.events import EventType  # noqa: E402

from perfbench import calibrate, reference, workloads  # noqa: E402
from perfbench.tracer import Patches, Tracer, patched  # noqa: E402

_IMPORTED = time.monotonic()

perf_counter = time.perf_counter

_REACT = {EventType[name] for name in reference.REACT_TYPES}

#: Simulation slices per replay (see :func:`_run_in_slices`).
RUN_SLICES = 20


def _first_arg(args):
    return args[0]


def _arrival_request(args):
    return args[0].payload.request_id


def _batch_requests(args):
    return [request.request_id for request in args[0].payload[1].requests]


_REQUEST_OF = {
    EventType.REQUEST_ARRIVAL: _arrival_request,
    EventType.BATCH_COMPLETION: _batch_requests,
}


def _hook_react(sim: Simulator, patches: Patches, samples: List[float]) -> None:
    """Time every reaction handler the serving system registers."""
    register = sim.on

    def on(event_type, handler):
        if event_type in _REACT:

            def timed(event, handler=handler):
                start = perf_counter()
                try:
                    handler(event)
                finally:
                    samples.append((perf_counter() - start) * 1e3)

            register(event_type, timed)
        else:
            register(event_type, handler)

    patches.set(sim, "on", on)


def _hook_events(sim: Simulator, patches: Patches, tracer: Tracer) -> None:
    """Wrap every handler and every event callback in an event span."""
    register = sim.on
    schedule_at = sim.schedule_at
    wrapped: Dict = {}

    def span(event_type: EventType, fn):
        return tracer.wrap(
            f"sim.engine.{event_type.name}",
            fn,
            record=True,
            event_of=_first_arg,
            request_of=_REQUEST_OF.get(event_type),
        )

    def on(event_type, handler):
        register(event_type, span(event_type, handler))

    def traced_schedule_at(
        time, event_type=EventType.GENERIC, payload=None, callback=None, order=None
    ):
        if callback is not None:
            key = (callback, event_type)
            traced = wrapped.get(key)
            if traced is None:
                traced = wrapped[key] = span(event_type, callback)
            callback = traced
        return schedule_at(time, event_type, payload, callback, order)

    patches.set(sim, "on", on)
    patches.set(sim, "schedule_at", traced_schedule_at)


def _instrument(
    system: SpotServeSystem, provider: CloudProvider, tracer: Tracer, patches: Patches
) -> None:
    """Wrap the public entry points of every layer below the event loop."""
    sim = system.simulator
    counts = tracer.counts
    values = tracer.values
    queue = system.request_queue

    def note_depth(_args, _result):
        if queue.pending > counts["queue_depth_max"]:
            counts["queue_depth_max"] = queue.pending

    def note_batch(_args, batch):
        if batch is None:
            return
        values["batch_size"].append(batch.size)
        now = sim.now
        for request in batch.requests:
            if request.first_start_time is None:
                values["queue_wait"].append(now - request.arrival_time)

    def note_completion(args, _result):
        counts["recomputed_tokens"] += args[0].recomputed_tokens

    def note_shed(_args, shed):
        counts["shed_requests"] += len(shed)

    def note_mapping(_args, mapping):
        values["reuse_fraction"].append(mapping.reuse_fraction)
        counts["transfer_bytes"] += mapping.transfer_bytes

    def note_solve(args, _result):
        counts["hungarian_rows"] += np.shape(args[0])[0]

    def note_derived(_args, plan):
        counts["derived"] += plan is not None

    def note_autoscale(_args, decision):
        counts["autoscale_actions"] += not decision.is_noop

    def note_grant(args, granted):
        counts["requested_instances"] += args[0]
        counts["granted_instances"] += len(granted)

    def wrap(owner, attr, name, **options):
        patches.wrap(owner, attr, lambda fn: tracer.wrap(name, fn, **options))

    control = {"record": True, "control": True}
    wrap(queue, "enqueue", "engine.batching.enqueue", observe=note_depth)
    wrap(queue, "next_batch", "engine.batching.next_batch", observe=note_batch)
    wrap(InferencePipeline, "start_batch", "engine.pipeline.start_batch")
    wrap(InferencePipeline, "interrupt", "engine.pipeline.interrupt")
    busy = InferencePipeline.is_busy

    def counted_busy(pipeline):
        counts["is_busy_reads"] += 1
        return busy.fget(pipeline)

    patches.set(InferencePipeline, "is_busy", property(counted_busy))
    if system.admission is not None:
        wrap(system.admission, "admit", "core.admission.admit")
        wrap(system.admission, "shed", "core.admission.shed", observe=note_shed)
    wrap(
        system.stats,
        "record_completion",
        "core.stats.record_completion",
        observe=note_completion,
    )
    wrap(
        system.controller,
        "propose",
        "core.controller.propose",
        keep_durations=True,
        **control,
    )
    wrap(system.controller, "estimate", "core.controller.estimate", control=True)
    wrap(
        system.device_mapper,
        "map_devices",
        "core.device_mapper.map_devices",
        keep_durations=True,
        observe=note_mapping,
        **control,
    )
    wrap(
        device_mapper_module,
        "maximum_weight_assignment",
        "matching.hungarian.maximum_weight_assignment",
        observe=note_solve,
        **control,
    )
    wrap(system.migration_planner, "plan", "core.migration.plan", keep_durations=True, **control)
    wrap(
        system.migration_planner,
        "derive_tiered_plan",
        "core.migration.derive_tiered_plan",
        observe=note_derived,
        **control,
    )
    if system.autoscaler is not None:
        wrap(
            system.autoscaler,
            "plan",
            "core.autoscaler.Autoscaler.plan",
            observe=note_autoscale,
            **control,
        )
    for request in ("request_spot", "request_on_demand"):
        wrap(provider, request, f"cloud.provider.{request}", observe=note_grant, **control)
    wrap(provider, "release", "cloud.provider.release", **control)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _layer_metrics(
    tracer: Tracer, system: SpotServeSystem, run_s: float, memo: Dict
) -> Dict[str, float]:
    """The per-layer metrics of one traced replay, by reference name."""
    counts, values, stats = tracer.counts, tracer.values, system.stats
    calls, self_s, durations = tracer.calls, tracer.self_s, tracer.durations
    metrics: Dict[str, float] = {}
    for event in reference.EVENT_TYPES:
        name = f"sim.engine.{event}"
        events = tracer.events.get(name, 0)
        metrics[f"{name}.events"] = events
        metrics[f"{name}.self_us"] = _ratio(self_s(name), events) * 1e6
    arrivals = tracer.events.get("sim.engine.REQUEST_ARRIVAL", 0)
    propose = durations["core.controller.propose"]
    solves = calls("matching.hungarian.maximum_weight_assignment")
    completions = "core.stats.record_completion"
    cache = system.latency_model.cache_info().values()
    dataplane = tracer.total_s("sim.engine.REQUEST_ARRIVAL") + tracer.total_s(
        "sim.engine.BATCH_COMPLETION"
    )
    accounted = tracer.self_total_s() + tracer.loop_s
    metrics.update(
        {
            "sim.engine.loop_self_s": tracer.loop_s,
            "engine.batching.enqueue.calls": calls("engine.batching.enqueue"),
            "engine.batching.next_batch.calls": calls("engine.batching.next_batch"),
            "engine.batching.batch_size_mean": _mean(values["batch_size"]),
            "engine.batching.queue_depth_max": counts["queue_depth_max"],
            "engine.batching.queue_wait_p50_s": _pct(values["queue_wait"], 50),
            "engine.batching.queue_wait_p99_s": _pct(values["queue_wait"], 99),
            "engine.pipeline.is_busy.reads_per_arrival": _ratio(
                counts["is_busy_reads"], arrivals
            ),
            "engine.pipeline.start_batch.calls": calls("engine.pipeline.start_batch"),
            "engine.pipeline.interrupt.calls": calls("engine.pipeline.interrupt"),
            "core.admission.admit.calls": calls("core.admission.admit"),
            "core.admission.shed.requests": counts["shed_requests"],
            "core.stats.record_completion.self_us": _ratio(
                self_s(completions), calls(completions)
            )
            * 1e6,
            "core.controller.propose.calls": calls("core.controller.propose"),
            "core.controller.propose.self_s": self_s("core.controller.propose"),
            "core.controller.propose.ms_p50": _pct(propose, 50) * 1e3,
            "core.controller.propose.ms_p90": _pct(propose, 90) * 1e3,
            "core.controller.estimate.calls": calls("core.controller.estimate"),
            "core.device_mapper.map_devices.calls": calls("core.device_mapper.map_devices"),
            "core.device_mapper.map_devices.ms_p50": _pct(
                durations["core.device_mapper.map_devices"], 50
            )
            * 1e3,
            "core.device_mapper.map_devices.reuse_fraction_mean": _mean(
                values["reuse_fraction"]
            ),
            "core.device_mapper.map_devices.transfer_gb": counts["transfer_bytes"] / 2**30,
            "matching.hungarian.solves": solves,
            "matching.hungarian.rows_mean": _ratio(counts["hungarian_rows"], solves),
            "core.migration.plan.calls": calls("core.migration.plan"),
            "core.migration.plan.ms_p50": _pct(durations["core.migration.plan"], 50) * 1e3,
            "core.migration.plan.memo_hit_ratio": _ratio(
                memo["hits"], memo["hits"] + memo["misses"]
            ),
            "core.migration.derive_tiered_plan.calls": calls(
                "core.migration.derive_tiered_plan"
            ),
            "core.migration.derive_tiered_plan.derived_ratio": _ratio(
                counts["derived"], calls("core.migration.derive_tiered_plan")
            ),
            "core.autoscaler.Autoscaler.plan.self_s": self_s("core.autoscaler.Autoscaler.plan"),
            "core.autoscaler.Autoscaler.plan.action_ratio": _ratio(
                counts["autoscale_actions"], calls("core.autoscaler.Autoscaler.plan")
            ),
            "cloud.provider.request_spot.calls": calls("cloud.provider.request_spot"),
            "cloud.provider.grant_ratio": _ratio(
                counts["granted_instances"], counts["requested_instances"]
            ),
            "cloud.provider.release.calls": calls("cloud.provider.release"),
            "core.server.tokens_recomputed_ratio": _ratio(
                counts["recomputed_tokens"], stats.tokens_generated
            ),
            "core.server.requests_rerouted": stats.requests_rerouted,
            "core.server.migration_fallbacks": stats.migration_fallbacks,
            "core.server.acquisition_retries": stats.acquisition_retries,
            "core.server.stall_s": stats.total_stall_time,
            "llm.costmodel.cache_hit_ratio": _ratio(
                sum(hit for hit, _miss in cache), sum(hit + miss for hit, miss in cache)
            ),
            "trace.control_share": _ratio(tracer.control_s, run_s),
            "trace.dataplane_share": _ratio(dataplane, run_s),
            "trace.accounting_error_ratio": _ratio(abs(accounted - run_s), run_s),
        }
    )
    return metrics


def _largest_handler(tracer: Tracer) -> str:
    handlers = {
        event: tracer.total_s(f"sim.engine.{event}") for event in reference.EVENT_TYPES
    }
    return max(handlers, key=handlers.get)


def _violations(system: SpotServeSystem) -> List[str]:
    """The correctness gate: request conservation and the spill ledger."""
    stats = system.stats
    found = []
    accounted = (
        stats.completed_count
        + system.unfinished_request_count()
        + stats.requests_dropped
        + stats.requests_rejected
        + stats.requests_shed
    )
    if system.submitted_requests != accounted:
        found.append(
            f"request conservation: submitted {system.submitted_requests} != accounted {accounted}"
        )
    settled = stats.bytes_restored + stats.bytes_abandoned + system.pending_spill_bytes()
    if abs(stats.bytes_spilled - settled) > 1e-9 * max(stats.bytes_spilled, 1.0):
        found.append(f"spill ledger: spilled {stats.bytes_spilled!r} != settled {settled!r}")
    return found


def _run_in_slices(
    system: SpotServeSystem, until: float, tracer: Optional[Tracer], react_ms: List[float]
) -> Dict[str, object]:
    """Run the simulation to *until* in :data:`RUN_SLICES` slices.

    A calibration slice runs before the first and after every simulation
    slice; each simulation slice's wall time, and the reaction samples taken
    inside it, are scaled by the calibration slices around it (see
    :mod:`perfbench.calibrate`).  Slicing changes no outcome: the event
    loop stops at each boundary with nothing pending before it.
    """
    slices = [calibrate.slice_s()]
    wall = scaled = 0.0
    scaled_react: List[float] = []
    for k in range(1, RUN_SLICES + 1):
        mark = len(react_ms)
        if tracer is not None:
            tracer.start()
        start = perf_counter()
        stats = system.run(until=until if k == RUN_SLICES else until * k / RUN_SLICES)
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.stop()
        slices.append(calibrate.slice_s())
        factor = calibrate.scale(slices[-2], slices[-1])
        wall += elapsed
        scaled += elapsed * factor
        scaled_react.extend(sample * factor for sample in react_ms[mark:])
    return {
        "stats": stats,
        "wall_s": wall,
        "scaled_s": scaled,
        "react_ms": scaled_react,
        "slowdown": statistics.median(slices) / calibrate.REFERENCE_S,
        "first_slice_s": slices[0],
    }


def replay(
    workload: str,
    seed: int,
    trace: bool = False,
    size: Optional[float] = None,
    spans_path: Optional[str] = None,
    spawned: Optional[float] = None,
) -> Dict[str, object]:
    """Run *workload* once for *seed* and return its measurements.

    ``spawned`` is the parent's ``time.monotonic()`` just before it started
    this process; set-up is timed from there.  Without it (in-process
    calls) set-up starts when this module was loaded.  ``setup_s``,
    ``run_s`` and ``react_ms`` are in reference-host seconds (see
    :mod:`perfbench.calibrate`); the ``*_wall_s`` fields are unscaled.
    """
    origin = spawned if spawned is not None else _LOADED
    setup_slice = calibrate.slice_s()
    begin = time.monotonic()
    react_ms: List[float] = []
    with patched() as patches:
        work = workloads.build(workload, seed, size)
        scenario = work.scenario
        sim = Simulator()
        tracer = Tracer(lambda: sim.now) if trace else None
        if tracer is not None:
            _hook_events(sim, patches, tracer)
        else:
            _hook_react(sim, patches, react_ms)
        injector = FaultInjector(scenario.fault_plan) if scenario.fault_plan is not None else None
        provider = CloudProvider(
            sim,
            None,
            zones=scenario.zones,
            allow_spot_requests=work.allow_spot_requests,
            fault_injector=injector,
        )
        arrivals = work.arrivals.count_arrivals(scenario.duration)
        system = SpotServeSystem(
            sim,
            provider,
            get_model(scenario.model_name),
            options=scenario.options(),
            initial_arrival_rate=max(arrivals / max(scenario.duration, 1.0), 1e-3),
        )
        system.submit_arrival_process(work.arrivals, scenario.duration)
        built = time.monotonic()
        system.initialize()
        initialized = time.monotonic()
        planner = system.migration_planner
        memo_before = (planner.plan_memo_hits, planner.plan_memo_misses)
        if tracer is not None:
            _instrument(system, provider, tracer, patches)
        ran = _run_in_slices(system, scenario.duration + work.drain_time, tracer, react_ms)
        memo = {
            "hits": planner.plan_memo_hits - memo_before[0],
            "misses": planner.plan_memo_misses - memo_before[1],
        }

    stats = ran["stats"]
    latencies = stats.latencies()
    limit = reference.WORKLOADS[workload]["latency_limit_s"]
    setup_wall = (_IMPORTED - origin) + (initialized - begin)
    result: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "setup_s": setup_wall * calibrate.scale(setup_slice, ran["first_slice_s"]),
        "setup_wall_s": setup_wall,
        "import_s": _IMPORTED - origin,
        "build_s": built - begin,
        "initialize_s": initialized - built,
        "run_s": ran["scaled_s"],
        "run_wall_s": ran["wall_s"],
        "host_slowdown": ran["slowdown"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "react_ms": ran["react_ms"],
        "sim": {
            "submitted": system.submitted_requests,
            "completed": stats.completed_count,
            "unfinished": system.unfinished_request_count(),
            "dropped": stats.requests_dropped,
            "rejected": stats.requests_rejected,
            "shed": stats.requests_shed,
            "within_limit": sum(1 for latency in latencies if latency <= limit),
            "tokens": stats.tokens_generated,
            "cost_usd": provider.cost_tracker.total_cost(sim.now),
            "digest": hashlib.sha256(stats.extended_summary_text().encode("utf-8")).hexdigest(),
        },
        "latencies": latencies,
        "violations": _violations(system),
    }
    if tracer is not None:
        layers = _layer_metrics(tracer, system, ran["wall_s"], memo)
        layers["setup.import_s"] = result["import_s"]
        layers["setup.build_s"] = result["build_s"]
        layers["setup.initialize_s"] = result["initialize_s"]
        layers["bench.host_slowdown"] = ran["slowdown"]
        result["layers"] = layers
        result["largest_handler"] = _largest_handler(tracer)
        result["min_self_s"] = tracer.min_self_s()
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the traced spans here (JSON lines)")
    parser.add_argument("--spawned", type=float, default=None)
    args = parser.parse_args(argv)
    result = replay(
        args.workload, args.seed, trace=args.trace, spans_path=args.spans, spawned=args.spawned
    )
    sys.stdout.write(json.dumps(result))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
