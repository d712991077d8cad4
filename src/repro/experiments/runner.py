"""Experiment runner: replay a trace + workload against a serving system.

Every figure of the evaluation boils down to the same experiment shape:
pick a model, an availability trace, an arrival process and a serving
system; replay everything on the simulator; collect per-request latencies
and the monetary cost.  :func:`run_serving_experiment` packages that recipe
and returns an :class:`ExperimentResult` the benchmarks and examples report.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..cloud.instance import Market
from ..cloud.provider import CloudProvider
from ..cloud.trace import AvailabilityTrace
from ..cloud.zone import ZoneSpec
from ..core.server import ServingSystemBase, SpotServeOptions, SpotServeSystem
from ..core.stats import ServingStats
from ..core.tenancy import MultiTenantSystem
from ..faults.injector import FaultInjector, FaultPlan
from ..llm.spec import ModelSpec, get_model
from ..sim.engine import Simulator
from ..workload.arrival import ArrivalProcess
from ..workload.request import Request
from .metrics import LatencyStats

#: Extra simulated time after the trace ends so in-flight requests can drain.
DEFAULT_DRAIN_TIME = 600.0


@dataclass
class ExperimentResult:
    """Everything measured during one serving experiment."""

    system_name: str
    model_name: str
    duration: float
    stats: ServingStats
    latency: LatencyStats
    submitted_requests: int
    completed_requests: int
    total_cost: float
    tokens_generated: int
    cost_by_zone: Dict[str, float] = field(default_factory=dict)
    #: Simulation events dispatched during the run (the perf harness
    #: reports it next to ``sim_requests_per_sec``).
    dispatched_events: int = 0

    @property
    def completion_ratio(self) -> float:
        """Fraction of submitted requests that completed within the run."""
        if self.submitted_requests == 0:
            return 1.0
        return self.completed_requests / self.submitted_requests

    @property
    def unserved_requests(self) -> int:
        """Requests submitted but not completed by the end of the run.

        With SpotServe's conservation guarantee these are never silently
        dropped -- they are still queued or in flight when the simulation
        stops -- but from the client's point of view they went unserved, so
        the policy benchmark reports them as its "requests dropped" column.
        """
        return max(self.submitted_requests - self.completed_requests, 0)

    @property
    def cost_per_token(self) -> float:
        """USD per generated output token (Figure 7's y-axis)."""
        if self.tokens_generated <= 0:
            return float("inf")
        return self.total_cost / self.tokens_generated


def run_serving_experiment(
    system_cls: Type[ServingSystemBase],
    model: ModelSpec | str,
    trace: Optional[AvailabilityTrace],
    arrival_process: ArrivalProcess,
    duration: Optional[float] = None,
    drain_time: float = DEFAULT_DRAIN_TIME,
    options: Optional[SpotServeOptions] = None,
    trace_market: Market = Market.SPOT,
    initial_arrival_rate: Optional[float] = None,
    requests: Optional[List[Request]] = None,
    zones: Optional[Sequence[ZoneSpec]] = None,
    allow_spot_requests: bool = False,
    fault_injector: Optional[FaultInjector] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> ExperimentResult:
    """Run one serving experiment end to end.

    Parameters
    ----------
    system_cls:
        The serving system class (SpotServe or a baseline).
    model:
        Model spec or catalog name.
    trace:
        Spot availability trace to replay (``None`` when *zones* is given).
    arrival_process:
        Generates the request workload (ignored when *requests* is given).
    duration:
        Length of the workload in seconds; defaults to the trace duration.
    drain_time:
        Extra time simulated after the workload ends so queued requests can
        finish (they still count toward latency statistics).
    options:
        Feature switches for the serving system.
    trace_market:
        Billing market for trace-granted instances (spot by default; use
        on-demand for the Figure 7 reference runs).
    initial_arrival_rate:
        Arrival-rate estimate used before any request arrives; defaults to
        the submitted request count divided by the duration.
    requests:
        Pre-generated requests, all scheduled up front (overrides
        *arrival_process* so the identical workload can be replayed against
        several systems).  Without them the workload streams from
        *arrival_process* with O(1) pending arrival events; both paths draw
        the same seeded timestamps and give byte-identical results.
    zones:
        Availability zones of a multi-zone spot market (mutually exclusive
        with *trace*); each zone replays its own trace, capacity and prices.
    allow_spot_requests:
        Let the serving system (autoscaler) request extra spot instances
        beyond what the traces grant.
    fault_injector:
        A pre-built :class:`~repro.faults.injector.FaultInjector` attached
        to the cloud provider (``None`` -- the default -- installs no
        injector and leaves the run byte-identical to the fault-free code).
    fault_plan:
        Convenience alternative to *fault_injector*: a hashable/picklable
        :class:`~repro.faults.injector.FaultPlan` from which a *fresh*
        injector is built inside this call.  Sweeps that rerun the same
        configuration (serial or in worker processes) should pass the plan,
        not a shared injector, so every run starts from virgin RNG streams.
    """
    if fault_injector is None and fault_plan is not None:
        fault_injector = FaultInjector(fault_plan)
    model_spec = get_model(model) if isinstance(model, str) else model
    if trace is not None:
        default_duration = trace.duration
    elif zones:
        default_duration = max(zone.trace.duration for zone in zones)
    else:
        raise ValueError("either a trace or zones must be provided")
    run_duration = duration if duration is not None else default_duration

    simulator = Simulator()
    provider = CloudProvider(
        simulator,
        trace,
        trace_market=trace_market,
        zones=zones,
        allow_spot_requests=allow_spot_requests,
        fault_injector=fault_injector,
    )
    if initial_arrival_rate is None:
        # The streaming path counts the seeded draws without materialising
        # them, so the default rate matches the pre-materialised path bit
        # for bit.
        count = (
            len(requests)
            if requests is not None
            else arrival_process.count_arrivals(run_duration)
        )
        initial_arrival_rate = max(count / max(run_duration, 1.0), 1e-3)

    system = system_cls(
        simulator,
        provider,
        model_spec,
        options=options,
        initial_arrival_rate=initial_arrival_rate,
    )
    if requests is not None:
        system.submit_requests(requests)
    else:
        system.submit_arrival_process(arrival_process, run_duration)
    system.initialize()
    stats = system.run(until=run_duration + drain_time)

    now = simulator.now
    tracker = provider.cost_tracker
    latency = LatencyStats.from_latencies(stats.latencies())
    return ExperimentResult(
        system_name=system.name,
        model_name=model_spec.name,
        duration=run_duration,
        stats=stats,
        latency=latency,
        submitted_requests=system.submitted_requests,
        completed_requests=stats.completed_count,
        total_cost=tracker.total_cost(now),
        tokens_generated=stats.tokens_generated,
        cost_by_zone=tracker.cost_by_zone(now),
        dispatched_events=simulator.dispatched_events,
    )


def run_scenario_experiment(
    scenario,
    arrival_process: ArrivalProcess,
    drain_time: float = DEFAULT_DRAIN_TIME,
    system_cls: Type[ServingSystemBase] = SpotServeSystem,
    options: Optional[SpotServeOptions] = None,
    allow_spot_requests: bool = True,
    **kwargs,
) -> ExperimentResult:
    """Run a :class:`~repro.experiments.scenarios.MultiZoneScenario` end to end.

    Thin convenience over :func:`run_serving_experiment` for the multi-zone
    scenario objects (fluctuating / heavy-traffic / zone-outage / overload):
    wires the zones, enables extra spot requests (the autoscaler's growth
    channel) unless the scenario pins the fleet, and applies the scenario's
    options.

    Args:
        scenario: A ``MultiZoneScenario`` (zones, duration, policy options).
        arrival_process: The request workload to replay.
        drain_time: Extra simulated seconds after the workload ends.
        system_cls: Serving system class (SpotServe by default).
        options: Overrides ``scenario.options()`` when given.
        allow_spot_requests: Grant extra spot requests beyond the traces
            (the overload benchmark passes ``False`` so every admission
            variant runs on the identical fixed fleet at identical cost).
        **kwargs: Forwarded to :func:`run_serving_experiment`.

    Returns:
        The :class:`ExperimentResult` of the run.
    """
    if (
        getattr(scenario, "fault_plan", None) is not None
        and "fault_plan" not in kwargs
        and "fault_injector" not in kwargs
    ):
        # A fresh injector per run (built inside run_serving_experiment from
        # the plan) keeps reruns and multi-process sweeps deterministic.
        kwargs["fault_plan"] = scenario.fault_plan
    return run_serving_experiment(
        system_cls,
        scenario.model_name,
        trace=None,
        arrival_process=arrival_process,
        duration=scenario.duration,
        drain_time=drain_time,
        options=options if options is not None else scenario.options(),
        zones=scenario.zones,
        allow_spot_requests=allow_spot_requests,
        **kwargs,
    )


@dataclass
class MultiTenantResult(ExperimentResult):
    """An :class:`ExperimentResult` for the whole fleet plus per-tenant results.

    The fleet-wide fields aggregate every tenant (stats via
    :meth:`~repro.core.tenancy.MultiTenantSystem.aggregate_stats`, cost from
    the shared tracker); :attr:`tenants` holds one ordinary
    :class:`ExperimentResult` per tenant, with that tenant's own latency
    distribution, conservation counters and billing share.
    """

    #: Per-tenant results, keyed by tenant name.
    tenants: Dict[str, ExperimentResult] = field(default_factory=dict)


def run_multi_tenant_experiment(
    scenario,
    drain_time: float = DEFAULT_DRAIN_TIME,
) -> MultiTenantResult:
    """Run a :class:`~repro.experiments.scenarios.MultiTenantScenario`.

    Builds one shared simulator and cloud provider, a
    :class:`~repro.core.tenancy.MultiTenantSystem` coordinator over the
    scenario's tenants, streams each tenant's seeded arrival process and
    returns the fleet-wide result with per-tenant breakdowns.  The fleet is
    pinned to the traces (no extra spot requests), so tenants compare at
    equal cost.

    Args:
        scenario: The multi-tenant scenario (tenants, zones, duration).
        drain_time: Extra simulated seconds after the workload ends.

    Returns:
        A :class:`MultiTenantResult`; ``result.tenants[name]`` carries each
        tenant's own latency, conservation and cost share.
    """
    fault_injector = (
        FaultInjector(scenario.fault_plan) if scenario.fault_plan is not None else None
    )
    simulator = Simulator()
    provider = CloudProvider(
        simulator, None, zones=scenario.zones, fault_injector=fault_injector
    )
    system = MultiTenantSystem(simulator, provider, scenario.tenants)
    system.submit_workloads(scenario.duration)
    system.initialize()
    system.run(until=scenario.duration + drain_time)

    now = simulator.now
    tracker = provider.cost_tracker
    tenant_costs = system.tenant_costs(now)
    tenant_results: Dict[str, ExperimentResult] = {}
    for spec in scenario.tenants:
        tenant_system = system.systems[spec.name]
        stats = tenant_system.stats
        tenant_results[spec.name] = ExperimentResult(
            system_name=tenant_system.name,
            model_name=spec.model_name,
            duration=scenario.duration,
            stats=stats,
            latency=LatencyStats.from_latencies(stats.latencies()),
            submitted_requests=tenant_system.submitted_requests,
            completed_requests=stats.completed_count,
            total_cost=tenant_costs.get(spec.name, 0.0),
            tokens_generated=stats.tokens_generated,
            dispatched_events=simulator.dispatched_events,
        )
    aggregate = system.aggregate_stats()
    return MultiTenantResult(
        system_name=system.name,
        model_name="+".join(sorted({spec.model_name for spec in scenario.tenants})),
        duration=scenario.duration,
        stats=aggregate,
        latency=LatencyStats.from_latencies(aggregate.latencies()),
        submitted_requests=system.submitted_requests,
        completed_requests=aggregate.completed_count,
        total_cost=tracker.total_cost(now),
        tokens_generated=aggregate.tokens_generated,
        cost_by_zone=tracker.cost_by_zone(now),
        dispatched_events=simulator.dispatched_events,
        tenants=tenant_results,
    )


def _comparison_worker(
    job: Tuple[Type[ServingSystemBase], ModelSpec, Optional[AvailabilityTrace], ArrivalProcess, float, Optional[SpotServeOptions], Dict],
) -> ExperimentResult:
    """Run one comparison cell, streaming the workload from its arrival process.

    Each call redraws the seeded timestamps, so every system sees the
    identical workload whether the cells run in this process or in a pool.
    """
    system_cls, model_spec, trace, arrival_process, run_duration, options, kwargs = job
    return run_serving_experiment(
        system_cls,
        model_spec,
        trace,
        arrival_process,
        duration=run_duration,
        options=options,
        **kwargs,
    )


def run_comparison(
    systems: Dict[str, Type[ServingSystemBase]],
    model: ModelSpec | str,
    trace: Optional[AvailabilityTrace],
    arrival_process: ArrivalProcess,
    duration: Optional[float] = None,
    options_by_system: Optional[Dict[str, SpotServeOptions]] = None,
    workers: Optional[int] = None,
    **kwargs,
) -> Dict[str, ExperimentResult]:
    """Run several systems against the *same* workload and trace.

    Every system streams the same seeded request timestamps, so the
    comparison is workload-identical (the paper replays the same trace
    segment for every system).  Multi-zone fleets pass ``trace=None`` plus
    a ``zones=...`` keyword (forwarded to :func:`run_serving_experiment`).

    ``workers`` > 1 runs the systems in a ``multiprocessing`` pool (one
    process per system, capped at *workers*), which the figure benchmarks
    use to sweep a whole comparison on all cores; results are identical to
    the serial sweep.
    """
    model_spec = get_model(model) if isinstance(model, str) else model
    if trace is not None:
        run_duration = duration if duration is not None else trace.duration
    else:
        zones = kwargs.get("zones")
        if not zones:
            raise ValueError("either a trace or zones must be provided")
        run_duration = (
            duration
            if duration is not None
            else max(zone.trace.duration for zone in zones)
        )
    options_by_system = options_by_system or {}
    jobs = [
        (
            system_cls,
            model_spec,
            trace,
            arrival_process,
            run_duration,
            options_by_system.get(name),
            kwargs,
        )
        for name, system_cls in systems.items()
    ]
    if workers is not None and workers > 1 and len(jobs) > 1:
        with multiprocessing.Pool(processes=min(workers, len(jobs))) as pool:
            outcomes = pool.map(_comparison_worker, jobs)
    else:
        outcomes = [_comparison_worker(job) for job in jobs]
    return dict(zip(systems, outcomes))
