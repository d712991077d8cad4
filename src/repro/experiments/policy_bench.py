"""Head-to-head autoscaling-policy benchmark (the Figure-8-style sweep).

PR 1 added three demand-driven sizing policies (target-utilization,
queue-latency, cost-aware) plus the cheapest/priciest zone arbitrage, but
they were never compared against each other.  This module sweeps every
policy variant through the canonical multi-zone stress scenarios --
the fluctuating (MAF-like) workload, the >=heavy-traffic event-core stress,
the zone-outage scenario, the ``chaos`` cloud-fault-injection scenario
(refusals / launch failures / stragglers / early reclaims / degraded
bandwidth, all seeded) and the ``tiered_offload`` big-model migration
scenario (grace-deadline pressure with the host/object-storage spill tier
installed; its rows carry the spill accounting) -- under *identical* seeded
workloads and traces, and distils each run into one row: monetary cost, p99
latency and requests left unserved (``requests_unserved`` -- with
SpotServe's conservation guarantee these are still queued at the cutoff,
never silently dropped; ``stats.requests_dropped`` stays zero).

The heavy-traffic sweep exposed sustained overload as the regime where
every sizing policy collapses identically, so the benchmark also sweeps the
**overload-control (admission) policies** through the ``overload`` scenario
-- a pinned six-instance fleet offered several times its serving capability
-- where the fleet cost is byte-identical across variants and any latency
difference is attributable to admission/shedding alone (every row carries
an ``admission`` column; the sizing rows are all ``"none"``).

``benchmarks/perf/run_perf.py --policy-benchmark`` embeds both row sets
into ``BENCH_adaptation.json`` (CI uploads it as an artifact) and
``benchmarks/test_figure9_policies.py`` renders the comparison tables.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from .runner import (
    ExperimentResult,
    MultiTenantResult,
    run_multi_tenant_experiment,
    run_scenario_experiment,
)
from .scenarios import (
    chaos_scenario,
    heavy_traffic_scenario,
    multi_tenant_scenario,
    multi_zone_fluctuating_scenario,
    overload_scenario,
    tiered_offload_scenario,
    zone_outage_scenario,
)

#: Policy variants compared head to head.  ``cost-aware-priciest`` runs the
#: same sizing policy as ``cost-aware`` but inverts the zone arbitrage
#: (acquire calm expensive zones first), isolating the arbitrage direction's
#: contribution from the sizing rule's.
POLICY_VARIANTS: Dict[str, Dict[str, str]] = {
    "target-utilization": {"autoscale_policy": "target-utilization"},
    "queue-latency": {"autoscale_policy": "queue-latency"},
    "cost-aware": {"autoscale_policy": "cost-aware"},
    "cost-aware-priciest": {"autoscale_policy": "cost-aware", "arbitrage": "priciest"},
}

#: Scenarios every policy runs through (same seeds, same traces).  The
#: ``chaos`` cell layers the seeded fault plan (refusals, launch failures,
#: stragglers, early reclaims, degraded-bandwidth windows) on top of a dense
#: preemption market, so its rows also compare each policy's resilience
#: counters under identical injected faults.
BENCH_SCENARIOS: Tuple[str, ...] = (
    "fluctuating",
    "heavy-traffic",
    "zone-outage",
    "chaos",
    "tiered_offload",
)

#: Request volume of the chaos cell (kept below the scenario default so the
#: full 4-policy sweep stays interactive).
DEFAULT_CHAOS_TARGET_REQUESTS = 20_000

#: Default request volume of the heavy-traffic cell.  Smaller than the perf
#: harness's 100k so a full 4-policy sweep stays interactive; override via
#: ``run_policy_benchmark(heavy_target_requests=...)`` for the full load.
DEFAULT_HEAVY_TARGET_REQUESTS = 50_000

#: Overload-control variants swept through the ``overload`` scenario.  Each
#: maps to ``SpotServeOptions.admission`` + factory params; ``"none"`` is
#: today's behavior (unbounded queue) and serves as the control row.
ADMISSION_VARIANTS: Dict[str, Dict] = {
    "none": {},
    "queue-cap": {},
    "deadline-aware": {"slo_latency": 60.0},
    "token-bucket": {},
}

#: Duration of the overload cell (seconds of offered workload).
DEFAULT_OVERLOAD_DURATION = 600.0

#: Duration of the multi-tenant cell (seconds of offered workload).
DEFAULT_TENANT_DURATION = 600.0


def build_cell(
    scenario_name: str,
    policy_name: str,
    heavy_target_requests: int = DEFAULT_HEAVY_TARGET_REQUESTS,
    seed: int = 0,
):
    """Build one (scenario, arrival process, drain time) benchmark cell."""
    try:
        variant = POLICY_VARIANTS[policy_name]
    except KeyError:
        raise KeyError(
            f"unknown policy variant {policy_name!r}; available: {sorted(POLICY_VARIANTS)}"
        ) from None
    policy = variant["autoscale_policy"]
    if scenario_name == "fluctuating":
        scenario, arrivals = multi_zone_fluctuating_scenario(
            "OPT-6.7B", duration=600.0, seed=seed, autoscale_policy=policy
        )
        drain = 300.0
    elif scenario_name == "heavy-traffic":
        scenario, arrivals = heavy_traffic_scenario(
            "OPT-6.7B",
            duration=1200.0,
            seed=seed,
            target_requests=heavy_target_requests,
            autoscale_policy=policy,
        )
        drain = 300.0
    elif scenario_name == "zone-outage":
        scenario, arrivals = zone_outage_scenario(
            "OPT-6.7B", duration=900.0, seed=seed, autoscale_policy=policy
        )
        drain = 300.0
    elif scenario_name == "chaos":
        scenario, arrivals = chaos_scenario(
            "OPT-6.7B",
            duration=900.0,
            seed=seed,
            target_requests=DEFAULT_CHAOS_TARGET_REQUESTS,
            autoscale_policy=policy,
        )
        drain = 300.0
    elif scenario_name == "tiered_offload":
        # Big-model (GPT-20B) migration under grace-deadline pressure with
        # the host/object-storage offload tier installed: the rows compare
        # how each sizing policy behaves when the planner can spill to the
        # tier (their ``bytes_spilled`` / ``restores`` / ``spill_fallbacks``
        # columns are the witness).  ``seed=0`` -- the sweep default --
        # picks the scenario's representative draw.
        scenario, arrivals = tiered_offload_scenario(
            duration=900.0, seed=seed if seed else None
        )
        scenario = replace(scenario, autoscale_policy=policy)
        drain = 300.0
    else:
        raise KeyError(
            f"unknown benchmark scenario {scenario_name!r}; available: {BENCH_SCENARIOS}"
        )
    arbitrage = variant.get("arbitrage", "cheapest")
    if arbitrage != scenario.arbitrage:
        scenario = replace(scenario, arbitrage=arbitrage)
    return scenario, arrivals, drain


def run_cell(
    scenario_name: str,
    policy_name: str,
    heavy_target_requests: int = DEFAULT_HEAVY_TARGET_REQUESTS,
    seed: int = 0,
) -> ExperimentResult:
    """Run one policy x scenario cell end to end."""
    scenario, arrivals, drain = build_cell(
        scenario_name, policy_name, heavy_target_requests=heavy_target_requests, seed=seed
    )
    return run_scenario_experiment(scenario, arrivals, drain_time=drain)


def _finite(value: float) -> Optional[float]:
    """JSON-safe float (NaN/inf become None)."""
    return round(value, 4) if math.isfinite(value) else None


def result_row(
    scenario_name: str,
    policy_name: str,
    result: ExperimentResult,
    admission: str = "none",
) -> Dict:
    """Distil one cell's :class:`ExperimentResult` into a flat report row.

    Args:
        scenario_name: Benchmark scenario the cell ran.
        policy_name: Sizing-policy variant (``"fixed-fleet"`` for the
            overload cells, which attach no autoscaler).
        result: The cell's experiment result.
        admission: Overload-control variant the cell ran under.

    Returns:
        A flat JSON-safe dict: cost, latency percentiles, request
        accounting, every :class:`~repro.core.stats.ServingStats` counter
        in declaration order, and adaptation activity.
    """
    stats = result.stats
    return {
        "scenario": scenario_name,
        "policy": policy_name,
        "admission": admission,
        "total_cost": round(result.total_cost, 4),
        "avg_latency": _finite(result.latency.mean),
        "p99_latency": _finite(result.latency.p99),
        "submitted_requests": result.submitted_requests,
        "completed_requests": result.completed_requests,
        "requests_unserved": result.unserved_requests,
        **stats.counters(),
        "autoscale_actions": len(stats.autoscale_actions),
        "reconfigurations": len(stats.reconfigurations),
        # USD per million output tokens: per token, 4 decimals read 0.0.
        "cost_per_mtok_usd": _finite(result.cost_per_token * 1e6),
    }


def run_admission_cell(
    admission_name: str,
    duration: float = DEFAULT_OVERLOAD_DURATION,
    seed: int = 0,
) -> ExperimentResult:
    """Run one overload-scenario cell under one admission variant.

    The fleet is pinned (no autoscaler, no extra spot requests), so every
    admission variant pays the identical monetary cost and the rows isolate
    the overload-control contribution.

    Args:
        admission_name: Key into :data:`ADMISSION_VARIANTS`.
        duration: Offered-workload length in seconds.
        seed: Workload seed (identical across variants).

    Returns:
        The cell's :class:`ExperimentResult`.

    Raises:
        KeyError: If *admission_name* is not a registered variant.
    """
    try:
        params = ADMISSION_VARIANTS[admission_name]
    except KeyError:
        raise KeyError(
            f"unknown admission variant {admission_name!r}; "
            f"available: {sorted(ADMISSION_VARIANTS)}"
        ) from None
    scenario, arrivals = overload_scenario(
        "OPT-6.7B",
        duration=duration,
        seed=seed,
        admission=None if admission_name == "none" else admission_name,
        admission_params=params or None,
    )
    return run_scenario_experiment(
        scenario, arrivals, drain_time=120.0, allow_spot_requests=False
    )


def tenant_result_rows(
    result: MultiTenantResult,
    admission_by_tenant: Optional[Dict[str, str]] = None,
) -> List[Dict]:
    """Flatten a multi-tenant result into one report row per tenant.

    Each row is the standard :func:`result_row` shape plus a ``tenant``
    column, so the BENCH report renders tenants side by side exactly like
    policy variants.

    Args:
        result: The multi-tenant cell's result.
        admission_by_tenant: Each tenant's admission-policy name for the
            ``admission`` column (``"none"`` when omitted).

    Returns:
        One flat JSON-safe row per tenant, sorted by tenant name.
    """
    admissions = admission_by_tenant or {}
    rows: List[Dict] = []
    for tenant in sorted(result.tenants):
        row = result_row(
            "multi-tenant",
            "fleet-partitioner",
            result.tenants[tenant],
            admission=admissions.get(tenant, "none"),
        )
        row["tenant"] = tenant
        rows.append(row)
    return rows


def _cell_worker(job: Tuple[str, str, int, int]) -> Dict:
    """Worker entry point: run one cell and return its row (picklable)."""
    scenario_name, policy_name, heavy_target_requests, seed = job
    result = run_cell(
        scenario_name,
        policy_name,
        heavy_target_requests=heavy_target_requests,
        seed=seed,
    )
    return result_row(scenario_name, policy_name, result)


def _admission_cell_worker(job: Tuple[str, float, int]) -> Dict:
    """Worker entry point: run one overload cell (picklable)."""
    admission_name, duration, seed = job
    result = run_admission_cell(admission_name, duration=duration, seed=seed)
    return result_row("overload", "fixed-fleet", result, admission=admission_name)


def _tenant_cell_worker(job: Tuple[float, int]) -> List[Dict]:
    """Worker entry point: run the multi-tenant cell, one row per tenant.

    The two-tenant price-spike cell (latency tier vs batch tier): both
    tenants hold mirrored zone pairs of identical size and price, so their
    fleet costs are byte-equal and any p99 difference is attributable to
    the per-tenant SLO/admission policies.
    """
    duration, seed = job
    scenario = multi_tenant_scenario(duration=duration, seed=seed)
    result = run_multi_tenant_experiment(scenario, drain_time=120.0)
    admissions = {
        spec.name: spec.admission or "none" for spec in scenario.tenants
    }
    return tenant_result_rows(result, admission_by_tenant=admissions)


def run_policy_benchmark(
    policies: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    heavy_target_requests: int = DEFAULT_HEAVY_TARGET_REQUESTS,
    seed: int = 0,
    admission_variants: Optional[Sequence[str]] = None,
    overload_duration: float = DEFAULT_OVERLOAD_DURATION,
    include_tenants: bool = True,
    tenant_duration: float = DEFAULT_TENANT_DURATION,
) -> Dict:
    """Sweep every policy through every scenario; returns the report payload.

    Every cell replays the identical seeded workload and traces, so rows are
    directly comparable across policies.  The payload also carries the
    overload-control sweep: every admission variant through the ``overload``
    scenario on a pinned fleet (``admission_rows``).

    Args:
        policies: Sizing-policy variants (default: all of
            :data:`POLICY_VARIANTS`).
        scenarios: Scenarios to sweep (default: :data:`BENCH_SCENARIOS`).
        workers: Fan the cells over this many worker processes (rows are
            identical to the serial sweep).
        heavy_target_requests: Request volume of the heavy-traffic cell.
        seed: Workload seed shared by every cell.
        admission_variants: Overload-control variants for the ``overload``
            sweep (default: all of :data:`ADMISSION_VARIANTS`; pass an
            empty sequence to skip the sweep).
        overload_duration: Offered-workload length of the overload cells.
        include_tenants: Also run the two-tenant price-spike cell
            (latency tier vs batch tier on a shared fleet) and report one
            row per tenant in ``tenant_rows``.
        tenant_duration: Offered-workload length of the multi-tenant cell.

    Returns:
        The report payload: ``rows`` (policy x scenario),
        ``admission_rows`` (admission x overload), ``tenant_rows`` (one per
        tenant of the shared-fleet cell) and the swept variant lists.
    """
    policies = list(policies if policies is not None else POLICY_VARIANTS)
    scenarios = list(scenarios if scenarios is not None else BENCH_SCENARIOS)
    admission_variants = list(
        admission_variants if admission_variants is not None else ADMISSION_VARIANTS
    )
    jobs = [
        (scenario_name, policy_name, heavy_target_requests, seed)
        for scenario_name in scenarios
        for policy_name in policies
    ]
    admission_jobs = [
        (admission_name, overload_duration, seed)
        for admission_name in admission_variants
    ]
    tenant_jobs = [(tenant_duration, seed)] if include_tenants else []
    total_jobs = len(jobs) + len(admission_jobs) + len(tenant_jobs)
    tenant_rows: List[Dict] = []
    if workers is not None and workers > 1 and total_jobs > 1:
        with multiprocessing.Pool(
            processes=min(workers, max(total_jobs, 1))
        ) as pool:
            policy_async = pool.map_async(_cell_worker, jobs)
            admission_async = pool.map_async(_admission_cell_worker, admission_jobs)
            tenant_async = pool.map_async(_tenant_cell_worker, tenant_jobs)
            rows = policy_async.get()
            admission_rows = admission_async.get()
            tenant_rows = [row for batch in tenant_async.get() for row in batch]
    else:
        rows = [_cell_worker(job) for job in jobs]
        admission_rows = [_admission_cell_worker(job) for job in admission_jobs]
        tenant_rows = [
            row for job in tenant_jobs for row in _tenant_cell_worker(job)
        ]
    return {
        "benchmark": "autoscaling-policy head-to-head",
        "policies": policies,
        "scenarios": scenarios,
        "admission_variants": admission_variants,
        "seed": seed,
        "rows": rows,
        "admission_rows": admission_rows,
        "tenant_rows": tenant_rows,
    }
