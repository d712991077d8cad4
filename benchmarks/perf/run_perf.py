#!/usr/bin/env python
"""Adaptation-round perf harness: wall-clock breakdown + BENCH JSON.

Runs the golden end-to-end (single-zone stable) and multi-zone fluctuating
scenarios, and the stress scenarios below, and reports how much wall-clock
each adaptation round spends in the control stack.  The timings come from
perfbench's span tracer (:mod:`perfbench.tracer`), applied from outside the
program: for one :func:`measure` call it wraps four class attributes, and
restores them when the call ends:

* ``ParallelizationController.propose``, reported as ``propose`` --
  Algorithm 1's configuration sweep;
* ``DeviceMapper.map_devices``, reported as ``map`` -- the Kuhn-Munkres
  device mapping (hierarchical first; the flat matching only when the
  hierarchical placement misses the reuse bound or the weights are not
  integers);
* ``MigrationPlanner.plan``, reported as ``plan`` -- Algorithm 2's
  migration plan;
* ``Simulator.run``, reported as ``simulate`` -- the discrete-event loop.

They are wrapped on the class because each runner builds its serving
system internally; the tenants of a multi-tenant run add up into one row.
Each row splits ``wall_s`` into three exclusive columns that add up to it:

* ``setup_s`` -- time outside every span (building the system and its
  workload, and the result afterwards);
* ``simulate_self_s`` -- the event loop minus the control calls it makes;
* ``control_s`` -- propose + map + plan, including the initial propose
  that runs before the loop.

``accounting_error_ratio`` is how far their sum misses ``wall_s``;
:func:`measure` raises when it exceeds 2%.  Rows also report the work the
run did: ``served_fraction``, ``goodput_tok_per_sim_s`` and simulated p50 /
p99 latency sit next to ``sim_requests_per_sec``, and ``hungarian_solves``
counts calls of the module global
``repro.core.device_mapper.maximum_weight_assignment`` (the name perfbench
counts too).  It is a plain counter, not a span, so it leaves the three
columns unchanged.

The headline metric is ``adaptation_round_ms``: control-stack seconds per
controller invocation.  Results are written as ``BENCH_adaptation.json`` so
the repo accumulates a perf trajectory, and ``--check`` compares against a
committed baseline and fails on a > ``--max-regression`` slowdown (the CI
perf-smoke job runs seven scenarios this way).

The harness also reports ``sim_requests_per_sec`` (submitted requests per
second inside ``Simulator.run``; not events, because an arrival that finds
every pipeline busy takes in the arrivals before the next pending event
without events of their own) and runs a ``heavy-traffic`` scenario:
>=100k streamed requests across three zones with preemption waves and a
price spike, the workload class the event-core fast path (``__slots__``
events, tuple payloads, per-type dispatch tables, heap compaction,
streaming arrivals, incremental stats) exists for.

A ``zone-outage`` scenario keeps the fault-injection path (ZONE_OUTAGE
events, fleet evacuation, conservation accounting) on the measured/guarded
path; an ``overload`` scenario does the same for the overload-control
subsystem (admission hooks + deadline-aware queue shedding on a pinned
fleet); a ``chaos`` scenario does the same for the cloud-fault injection
layer (seeded allocation refusals, launch failures, straggler launches,
early reclaims, degraded-bandwidth windows) and the acquisition
retry/backoff + launch-watchdog machinery that chases those faults (its
row carries the ``fault_counters`` block); a ``multi_tenant`` scenario
keeps the multi-tenant coordinator (one fleet split per rebalance round,
sticky ownership handovers, per-tenant conservation accounting) measured
and guarded; and
a ``tiered_offload`` scenario keeps the migration planner's host/object
storage spill tier (tiered plan derivation inside the grace window,
spill/restore accounting -- its row carries the ``spill_counters`` block)
measured and guarded.
``--policy-benchmark`` appends the autoscaling-policy head-to-head
sweep plus the admission-policy overload sweep (cost / p99 / rejected /
shed per variant; see :mod:`repro.experiments.policy_bench`) to the BENCH
JSON, along with the two-tenant price-spike rows (latency-tier vs
batch-tier on a shared fleet).

Usage::

    python benchmarks/perf/run_perf.py                       # all golden scenarios
    python benchmarks/perf/run_perf.py --scenario small      # quick CI smoke
    python benchmarks/perf/run_perf.py --scenario small \
        --check benchmarks/perf/baseline.json                # regression guard
    python benchmarks/perf/run_perf.py --jobs 4              # scenario sweep on all cores
    python benchmarks/perf/run_perf.py --scenario heavy-traffic --profile  # not with --check
    python benchmarks/perf/run_perf.py --policy-benchmark    # policy head-to-head
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import multiprocessing
import platform
import pstats
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
# The program lives under src/; perfbench, whose tracer times it, at the root.
for _path in (REPO_ROOT, REPO_ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.tracer import Tracer, patched  # noqa: E402
from repro.core import device_mapper as device_mapper_module  # noqa: E402
from repro.core.controller import ParallelizationController  # noqa: E402
from repro.core.device_mapper import DeviceMapper  # noqa: E402
from repro.core.migration import MigrationPlanner  # noqa: E402
from repro.core.server import SpotServeSystem  # noqa: E402
from repro.experiments.policy_bench import run_policy_benchmark  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    ExperimentResult,
    run_multi_tenant_experiment,
    run_scenario_experiment,
    run_serving_experiment,
)
from repro.experiments.scenarios import (  # noqa: E402
    chaos_scenario,
    heavy_traffic_scenario,
    multi_tenant_scenario,
    multi_zone_fluctuating_scenario,
    overload_scenario,
    stable_workload_scenario,
    tiered_offload_scenario,
    zone_outage_scenario,
)
from repro.sim.engine import Simulator  # noqa: E402

#: The control-stack methods of one adaptation round, by the phase name
#: each row reports them under.
CONTROL_PHASES = {
    "propose": (ParallelizationController, "propose"),
    "map": (DeviceMapper, "map_devices"),
    "plan": (MigrationPlanner, "plan"),
}

#: :func:`measure` raises when ``setup_s + simulate_self_s + control_s``
#: misses ``wall_s`` by more than this fraction of it.
MAX_ACCOUNTING_ERROR = 0.02


def _run_end_to_end() -> ExperimentResult:
    scenario = stable_workload_scenario("OPT-6.7B", "AS", duration=400.0)
    return run_serving_experiment(
        SpotServeSystem,
        scenario.model_name,
        scenario.trace,
        scenario.arrival_process(),
        duration=scenario.duration,
        drain_time=200.0,
        options=scenario.options(),
    )


def _run_multi_zone(duration: float, drain_time: float) -> ExperimentResult:
    scenario, arrivals = multi_zone_fluctuating_scenario("OPT-6.7B", duration=duration)
    return run_scenario_experiment(scenario, arrivals, drain_time=drain_time)


def _run_heavy_traffic() -> ExperimentResult:
    scenario, arrivals = heavy_traffic_scenario("OPT-6.7B")
    return run_scenario_experiment(scenario, arrivals, drain_time=300.0)


def _run_multi_zone_wrapper() -> ExperimentResult:
    return _run_multi_zone(600.0, 300.0)


def _run_small_wrapper() -> ExperimentResult:
    return _run_multi_zone(300.0, 150.0)


def _run_zone_outage() -> ExperimentResult:
    scenario, arrivals = zone_outage_scenario("OPT-6.7B")
    return run_scenario_experiment(scenario, arrivals, drain_time=300.0)


def _run_chaos() -> ExperimentResult:
    # Seeded cloud-fault injection on a dense-preemption market: allocation
    # refusals, launch failures, straggler launches, early reclaims and
    # degraded-bandwidth windows, with the acquisition retry/backoff and
    # launch-watchdog machinery chasing the faults on the measured path.
    scenario, arrivals = chaos_scenario("OPT-6.7B")
    return run_scenario_experiment(scenario, arrivals, drain_time=300.0)


def _run_overload() -> ExperimentResult:
    # Deadline-aware shedding keeps the admission/shedding hooks on the
    # measured path (the "none" variant would exercise only the wiring).
    scenario, arrivals = overload_scenario(
        "OPT-6.7B",
        admission="deadline-aware",
        admission_params={"slo_latency": 60.0},
    )
    return run_scenario_experiment(
        scenario, arrivals, drain_time=120.0, allow_spot_requests=False
    )


def _run_tiered_offload() -> ExperimentResult:
    # Big-model (GPT-20B) migration under grace-deadline pressure with the
    # host/object-storage offload tier installed: tier selection in the
    # migration planner, spill/restore accounting and the degraded-window
    # tier bandwidths all on the measured path.  The fleet is pinned
    # (allow_spot_requests=False) so the run matches the acceptance
    # comparison in the tier-1 suite.
    scenario, arrivals = tiered_offload_scenario()
    return run_scenario_experiment(
        scenario, arrivals, drain_time=300.0, allow_spot_requests=False
    )


def _run_multi_tenant() -> ExperimentResult:
    # Two tenants (latency-tier vs batch-tier) sharing a four-zone spot
    # fleet through the multi-tenant coordinator: one fleet split per
    # rebalance round, sticky ownership handovers and per-tenant accounting
    # all on the measured path.  Returns the fleet-wide aggregate result (per-tenant digests
    # are exercised by the tier-1 tenancy tests, not timed here).
    scenario = multi_tenant_scenario("OPT-6.7B", duration=600.0)
    return run_multi_tenant_experiment(scenario, drain_time=120.0)


SCENARIOS: Dict[str, Callable[[], ExperimentResult]] = {
    # The two golden determinism scenarios, run at their golden durations.
    "end-to-end": _run_end_to_end,
    "multi-zone": _run_multi_zone_wrapper,
    # Shortened multi-zone run for the CI perf-smoke job.
    "small": _run_small_wrapper,
    # >=100k streamed requests across three zones: the event-core stress
    # scenario behind the ``sim_requests_per_sec`` metric.
    "heavy-traffic": _run_heavy_traffic,
    # Full-zone fault injection: the cheapest zone goes dark mid-run and the
    # fleet evacuates across the survivors (ZONE_OUTAGE events, evacuation
    # replanning, conservation accounting all on the measured path).
    "zone-outage": _run_zone_outage,
    # Sustained overload on a pinned fleet with deadline-aware shedding:
    # the overload-control subsystem (admission hooks + per-round queue
    # shedding) on the measured path.
    "overload": _run_overload,
    # Seeded cloud-fault injection (refusals, launch failures, stragglers,
    # early reclaims, degraded bandwidth + a mid-window zone outage): the
    # fault-injection and acquisition-resilience machinery on the measured
    # path.
    "chaos": _run_chaos,
    # Two tenants sharing a four-zone spot fleet through the multi-tenant
    # coordinator: one fleet split per rebalance round, sticky ownership
    # handovers and per-tenant conservation accounting on the measured
    # path.
    "multi_tenant": _run_multi_tenant,
    # Big-model migration under grace-deadline pressure with the
    # host/object-storage offload tier: tiered plan derivation and the
    # spill/restore accounting on the measured path.
    "tiered_offload": _run_tiered_offload,
}


def _percentile(values: List[float], q: float) -> Optional[float]:
    return round(float(np.percentile(values, q)), 4) if values else None


def measure(name: str) -> Dict:
    """Run one scenario and report where its wall-clock time went."""
    # Spans are only aggregated, never stored, so no simulated clock is read.
    tracer = Tracer(clock=lambda: 0.0)
    # The simulated clock at the end of each Simulator.run.
    sim_end: List[float] = []

    def note_sim_end(args, _dispatched):
        sim_end.append(args[0].now)

    def count_solves(solve):
        """The device mapper's Kuhn-Munkres solver, counted without a span."""

        def counted(*args, **kwargs):
            tracer.counts["hungarian_solves"] += 1
            return solve(*args, **kwargs)

        return counted

    # Free the cyclic garbage of earlier scenarios in this process first, or
    # the full collection that frees it lands inside this row's time.
    gc.collect()
    with patched() as patches:
        for phase, (owner, attr) in CONTROL_PHASES.items():
            patches.wrap(
                owner, attr, lambda fn, phase=phase: tracer.wrap(phase, fn, control=True)
            )
        patches.wrap(
            Simulator, "run", lambda fn: tracer.wrap("simulate", fn, observe=note_sim_end)
        )
        patches.wrap(device_mapper_module, "maximum_weight_assignment", count_solves)
        start = time.perf_counter()
        tracer.start()
        result = SCENARIOS[name]()
        tracer.stop()
        wall_s = time.perf_counter() - start

    # One adaptation round may invoke the controller more than once (a
    # workload check and the subsequent reconfiguration planning each call
    # propose), so the unit of the headline metric is one controller
    # invocation -- consistent across baselines, slightly finer than a round.
    invocations = tracer.calls("propose")
    if invocations == 0:
        # The scenario never reached the wrapped method, so the control stack
        # no longer runs through it; failing loudly keeps the --check guard
        # from passing vacuously at 0.0 ms/round.
        raise RuntimeError(
            f"scenario {name!r} made no ParallelizationController.propose call; "
            "the harness no longer wraps the control stack's entry point"
        )
    setup_s = tracer.loop_s
    simulate_self_s = tracer.self_s("simulate")
    control_s = tracer.control_s
    accounting_error = abs(setup_s + simulate_self_s + control_s - wall_s) / wall_s
    if accounting_error > MAX_ACCOUNTING_ERROR:
        raise RuntimeError(
            f"scenario {name!r}: setup {setup_s:.4f} s + simulate {simulate_self_s:.4f} s "
            f"+ control {control_s:.4f} s misses wall {wall_s:.4f} s by "
            f"{accounting_error:.1%}"
        )
    simulate_s = tracer.total_s("simulate")
    round_ms = 1000.0 * control_s / invocations
    sim_s = max(sim_end, default=0.0)
    latencies = result.stats.latencies()

    report = {
        "scenario": name,
        "wall_s": round(wall_s, 4),
        # Exclusive: these three add up to wall_s.
        "setup_s": round(setup_s, 4),
        "simulate_self_s": round(simulate_self_s, 4),
        "control_s": round(control_s, 4),
        "accounting_error_ratio": round(accounting_error, 6),
        # Inclusive: the event loop with the control calls it makes.
        "simulate_s": round(simulate_s, 4),
        "controller_invocations": invocations,
        "adaptation_round_ms": round(round_ms, 4),
        "hungarian_solves": int(tracer.counts["hungarian_solves"]),
        "submitted_requests": result.submitted_requests,
        "completed_requests": result.completed_requests,
        "served_fraction": round(result.completion_ratio, 4),
        "goodput_tok_per_sim_s": round(result.tokens_generated / sim_s, 3)
        if sim_s > 0
        else 0.0,
        "latency_p50_s": _percentile(latencies, 50),
        "latency_p99_s": _percentile(latencies, 99),
        "dispatched_events": result.dispatched_events,
        # Simulator throughput: every submitted request over the whole
        # simulate phase (control-stack work triggered by events included).
        # Not per event: one arrival event can take in many requests.
        "sim_requests_per_sec": round(result.submitted_requests / simulate_s, 1)
        if simulate_s > 0
        else 0.0,
        "phases": {
            phase: {
                "seconds": round(tracer.total_s(phase), 6),
                "calls": tracer.calls(phase),
                "ms_per_call": round(1000.0 * tracer.total_s(phase) / tracer.calls(phase), 4),
            }
            for phase in sorted(tracer.stats)
            if tracer.calls(phase)
        },
        "digest_chars": len(result.stats.summary_text()),
    }
    # Only scenarios that touch a group report it: fault-injected ones
    # (chaos) the resilience counters, tier-configured ones
    # (tiered_offload) the spill accounting.  Other rows omit both blocks.
    for block, group in (("fault_counters", "faults"), ("spill_counters", "spill")):
        counters = result.stats.counters(group)
        if any(counters.values()):
            report[block] = counters
    return report


def check_regression(reports: Dict[str, Dict], baseline_path: Path, max_regression: float) -> int:
    """Compare measured rounds against the committed baseline; 0 == pass.

    Four guards per scenario, all optional in the baseline JSON:

    * ``adaptation_round_ms`` -- fails when the measured round exceeds the
      committed value times ``--max-regression``;
    * ``map_ms_per_call`` -- fails when the measured per-call cost of the
      ``map`` phase exceeds the committed value times ``--max-regression``
      (guards the device-mapper fast path specifically, so a mapper
      regression cannot hide inside an otherwise-fast round);
    * ``plan_ms_per_call`` -- same per-phase guard for the migration
      planner's fast path.  Scenarios without reconfiguring rounds (the
      pinned-fleet ``overload``) record no ``plan`` phase and skip the
      guard with a message, like the map guard;
    * ``min_sim_requests_per_sec`` -- fails when the simulator's request
      throughput drops below the committed floor (already padded for slow
      runners, so no multiplier is applied).
    """
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, report in reports.items():
        entry = baseline.get("scenarios", {}).get(name, {})
        allowed = entry.get("adaptation_round_ms")
        map_allowed = entry.get("map_ms_per_call")
        plan_allowed = entry.get("plan_ms_per_call")
        min_requests = entry.get("min_sim_requests_per_sec")
        if (
            allowed is None
            and map_allowed is None
            and plan_allowed is None
            and min_requests is None
        ):
            print(f"[check] {name}: no committed baseline, skipping")
            continue
        if allowed is not None:
            measured = report["adaptation_round_ms"]
            limit = allowed * max_regression
            verdict = "OK" if measured <= limit else "REGRESSION"
            print(
                f"[check] {name}: {measured:.2f} ms/round vs baseline {allowed:.2f} "
                f"(limit {limit:.2f}, x{max_regression:g}) -> {verdict}"
            )
            if measured > limit:
                failures.append(name)
        if map_allowed is not None:
            map_phase = report.get("phases", {}).get("map")
            if map_phase is None:
                print(f"[check] {name}: no map phase measured, skipping map guard")
            else:
                measured = map_phase["ms_per_call"]
                limit = map_allowed * max_regression
                verdict = "OK" if measured <= limit else "REGRESSION"
                print(
                    f"[check] {name}: map {measured:.2f} ms/call vs baseline "
                    f"{map_allowed:.2f} (limit {limit:.2f}, x{max_regression:g}) "
                    f"-> {verdict}"
                )
                if measured > limit and name not in failures:
                    failures.append(name)
        if plan_allowed is not None:
            plan_phase = report.get("phases", {}).get("plan")
            if plan_phase is None:
                print(f"[check] {name}: no plan phase measured, skipping plan guard")
            else:
                measured = plan_phase["ms_per_call"]
                limit = plan_allowed * max_regression
                verdict = "OK" if measured <= limit else "REGRESSION"
                print(
                    f"[check] {name}: plan {measured:.2f} ms/call vs baseline "
                    f"{plan_allowed:.2f} (limit {limit:.2f}, x{max_regression:g}) "
                    f"-> {verdict}"
                )
                if measured > limit and name not in failures:
                    failures.append(name)
        if min_requests is not None:
            requests_per_sec = report.get("sim_requests_per_sec", 0.0)
            verdict = "OK" if requests_per_sec >= min_requests else "REGRESSION"
            print(
                f"[check] {name}: {requests_per_sec:.0f} sim requests/s vs floor "
                f"{min_requests:.0f} -> {verdict}"
            )
            if requests_per_sec < min_requests and name not in failures:
                failures.append(name)
    if failures:
        print(f"[check] FAILED: perf regressed on {', '.join(failures)}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="scenario(s) to run; default: end-to-end and multi-zone",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_adaptation.json",
        help="where to write the BENCH JSON (default: repo root)",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        help="baseline JSON to compare against (exit 1 on regression)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail --check when a round is this many times slower (default 2.0)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run the selected scenarios in this many worker processes "
        "(default 1: serial).  Simulation results are identical, but the "
        "wall-clock timings are then measured under core contention, so "
        "--check forces a serial run",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each scenario under cProfile and print the top 25 "
        "functions by cumulative time (forces --jobs 1; rejected with "
        "--check, whose guards would read the profiler's overhead)",
    )
    parser.add_argument(
        "--policy-benchmark",
        action="store_true",
        help="also run the autoscaling-policy head-to-head sweep (every "
        "policy variant through the fluctuating / heavy-traffic / "
        "zone-outage scenarios) and embed the per-policy cost/p99/unserved "
        "rows into the BENCH JSON",
    )
    parser.add_argument(
        "--policy-workers",
        type=int,
        default=min(multiprocessing.cpu_count(), 4),
        help="worker processes for the policy sweep's cells (default: up to "
        "4).  The sweep is not wall-clock-timed, so it may parallelize even "
        "under --check, which forces the timed scenarios serial",
    )
    args = parser.parse_args(argv)
    names = args.scenario or [
        "end-to-end",
        "multi-zone",
        "heavy-traffic",
        "zone-outage",
        "overload",
        "chaos",
        "multi_tenant",
        "tiered_offload",
    ]
    if args.profile and args.check is not None:
        # cProfile slows a run 2-3x, which the guards would read as a
        # regression or, at a smaller slowdown, let a real one through.
        parser.error("--profile inflates every timing; it cannot be combined with --check")
    if args.check is not None and args.jobs > 1:
        # Parallel scenarios time each other's interference; comparing that
        # against a serially-recorded baseline would fail healthy builds
        # (or mask real regressions), so the guard always measures serially.
        print("[perf] --check requires serial timings; ignoring --jobs")
        args.jobs = 1

    reports: Dict[str, Dict] = {}
    if args.profile:
        for name in names:
            print(f"[perf] profiling {name} ...")
            profiler = cProfile.Profile()
            profiler.enable()
            reports[name] = measure(name)
            profiler.disable()
            stats = pstats.Stats(profiler)
            stats.sort_stats("cumulative").print_stats(25)
    elif args.jobs > 1 and len(names) > 1:
        print(f"[perf] running {len(names)} scenarios on {args.jobs} workers ...")
        with multiprocessing.Pool(processes=min(args.jobs, len(names))) as pool:
            outcomes = pool.map(measure, names)
        reports = dict(zip(names, outcomes))
    else:
        for name in names:
            print(f"[perf] running {name} ...")
            reports[name] = measure(name)

    for name, report in reports.items():
        print(
            f"[perf] {name}: {report['adaptation_round_ms']:.2f} ms/round over "
            f"{report['controller_invocations']} controller invocations, "
            f"{report['sim_requests_per_sec']:.0f} sim requests/s, "
            f"served {report['served_fraction']:.0%} "
            f"(wall {report['wall_s']:.2f}s = setup {report['setup_s']:.2f} "
            f"+ simulate {report['simulate_self_s']:.2f} + control {report['control_s']:.2f})"
        )

    payload = {
        "benchmark": "adaptation-round control stack",
        "metric": "adaptation_round_ms (propose+map+plan wall-clock per round)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scenarios": reports,
    }

    if args.policy_benchmark:
        workers = max(args.policy_workers, args.jobs)
        print(f"[perf] running autoscaling-policy head-to-head sweep ({workers} workers) ...")
        policy_payload = run_policy_benchmark(workers=workers if workers > 1 else None)
        for row in policy_payload["rows"]:
            print(
                f"[policy] {row['scenario']:<13} {row['policy']:<20} "
                f"cost ${row['total_cost']:.2f}  p99 {row['p99_latency']}s  "
                f"unserved {row['requests_unserved']}"
            )
        for row in policy_payload["admission_rows"]:
            print(
                f"[admission] {row['scenario']:<11} {row['admission']:<20} "
                f"cost ${row['total_cost']:.2f}  p99 {row['p99_latency']}s  "
                f"rejected {row['requests_rejected']}  shed {row['requests_shed']}"
            )
        for row in policy_payload.get("tenant_rows", []):
            print(
                f"[tenant] {row['tenant']:<13} {row['admission']:<20} "
                f"cost ${row['total_cost']:.2f}  p99 {row['p99_latency']}s  "
                f"rejected {row['requests_rejected']}  shed {row['requests_shed']}"
            )
        payload["policy_benchmark"] = policy_payload
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[perf] wrote {args.output}")

    if args.check is not None:
        return check_regression(reports, args.check, args.max_regression)
    return 0


if __name__ == "__main__":
    sys.exit(main())
