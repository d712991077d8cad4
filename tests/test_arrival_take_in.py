"""Arrivals taken in without events of their own, against one event per arrival.

When a streamed arrival finds every pipeline busy, the serving system takes
in the stream's later arrivals before the simulator's horizon (its next
pending entry, capped by the running ``until`` bound) instead of scheduling
each as an event.  ``oracles.engine.PerArrivalSimulator`` has a horizon that
is always ``now``, so the same code fires every arrival as an event of its
own.  Runs on the two simulators must end with the same extended digest and
latencies, and leave the same state at every ``run(until=)`` boundary.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from oracles.engine import PerArrivalSimulator
from repro.cloud.provider import CloudProvider
from repro.cloud.trace import AvailabilityTrace
from repro.core.server import SpotServeSystem
from repro.core.tenancy import MultiTenantSystem
from repro.experiments.scenarios import multi_tenant_scenario
from repro.llm.spec import OPT_6_7B, get_model
from repro.sim.engine import Simulator
from repro.sim.events import EventType
from repro.workload.arrival import ArrivalProcess
from repro.workload.request import DEFAULT_INPUT_TOKENS

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench import workloads  # noqa: E402

#: Shortened perfbench workload sizes, in simulated seconds.
SIZES = {"serve": 1200.0, "ingest": 600.0}

#: Admission settings each workload runs under (replacing its own).
ADMISSION = {
    "none": {"admission": None, "admission_params": None},
    "deadline-aware": {"admission": "deadline-aware", "admission_params": {"slo_latency": 60.0}},
    "queue-cap": {"admission": "queue-cap", "admission_params": None},
    "token-bucket": {"admission": "token-bucket", "admission_params": None},
}

#: ``run(until=)`` slices per run.
SLICES = 7


def boundary(system):
    """What a caller can read of *system* between two ``run`` slices."""
    stats = system.stats
    return (
        system.simulator.now,
        system.submitted_requests,
        system.request_queue.pending,
        system.unfinished_request_count(),
        stats.completed_count,
        stats.requests_rejected,
        stats.requests_shed,
    )


def run_workload(simulator_class, name, admission, queue_class=None):
    """Run perfbench workload *name* (seed 0, shortened) in slices.

    With *queue_class*, the system's request queue is one of those.
    """
    work = workloads.build(name, 0, SIZES[name])
    scenario = work.scenario
    sim = simulator_class()
    provider = CloudProvider(
        sim, None, zones=scenario.zones, allow_spot_requests=work.allow_spot_requests
    )
    arrivals = work.arrivals.count_arrivals(scenario.duration)
    system = SpotServeSystem(
        sim,
        provider,
        get_model(scenario.model_name),
        options=dataclasses.replace(scenario.options(), **ADMISSION[admission]),
        initial_arrival_rate=max(arrivals / max(scenario.duration, 1.0), 1e-3),
    )
    if queue_class is not None:
        system.dataplane.queue = system.request_queue = queue_class()
    system.submit_arrival_process(work.arrivals, scenario.duration)
    system.initialize()
    end = scenario.duration + work.drain_time
    boundaries = []
    for k in range(1, SLICES + 1):
        system.run(until=end * k / SLICES)
        boundaries.append(boundary(system))
    stats = system.stats
    return stats.extended_summary_text(), stats.latencies(), boundaries, sim.dispatched_events


@pytest.mark.parametrize("admission", sorted(ADMISSION))
@pytest.mark.parametrize("name", sorted(SIZES))
def test_taking_arrivals_in_matches_one_event_per_arrival(name, admission):
    digest, latencies, boundaries, events = run_workload(Simulator, name, admission)
    expected = run_workload(PerArrivalSimulator, name, admission)
    assert boundaries == expected[2]
    assert latencies == expected[1]
    assert digest == expected[0]
    # Arrivals were taken in, so the comparison covers that path.
    assert events < expected[3]


def run_two_tenants(simulator_class):
    """Two tenants on every zone of ``multi_tenant_scenario``, in slices."""
    base = multi_tenant_scenario("OPT-6.7B", duration=300.0)
    tenants = tuple(dataclasses.replace(spec, zones=None) for spec in base.tenants)
    sim = simulator_class()
    system = MultiTenantSystem(sim, CloudProvider(sim, None, zones=base.zones), tenants)
    system.submit_workloads(base.duration)
    system.initialize()
    end = base.duration + 100.0
    boundaries = []
    for k in range(1, SLICES + 1):
        sim.run(until=end * k / SLICES)
        boundaries.append([boundary(tenant) for tenant in system.systems.values()])
    outcome = [
        (tenant.stats.extended_summary_text(), tenant.stats.latencies())
        for tenant in system.systems.values()
    ]
    return outcome, boundaries, sim.dispatched_events


def test_two_tenants_match_one_event_per_arrival():
    outcome, boundaries, events = run_two_tenants(Simulator)
    expected = run_two_tenants(PerArrivalSimulator)
    assert boundaries == expected[1]
    assert outcome == expected[0]
    assert events < expected[2]


class ListedArrivals(ArrivalProcess):
    """Arrivals at the listed times, in the listed order (unsorted)."""

    def __init__(self, times, output_tokens=128, input_tokens=DEFAULT_INPUT_TOKENS):
        super().__init__(input_tokens=input_tokens, output_tokens=output_tokens)
        self.times = list(times)

    def arrival_times(self, duration):
        return [time for time in self.times if time < duration]


def saturated_system(
    simulator_class, after, output_tokens=128, start=1.0, input_tokens=DEFAULT_INPUT_TOKENS
):
    """A pinned fleet whose pipelines all take a batch at *start*, then *after*.

    ``initialize`` schedules the first workload check (t=30) before the
    stream reserves its tie-break slot, so the check wins a tie with an
    arrival.
    """
    sim = simulator_class()
    trace = AvailabilityTrace(name="pinned", initial_instances=4, events=[], duration=300.0)
    system = SpotServeSystem(sim, CloudProvider(sim, trace), OPT_6_7B, initial_arrival_rate=0.1)
    system.initialize()
    pipelines = len(system.dataplane.pipelines)
    times = [start] * pipelines + after
    system.submit_arrival_process(
        ListedArrivals(times, output_tokens, input_tokens), 300.0
    )
    return system


@pytest.mark.parametrize(
    "simulator_class, raised_at", [(Simulator, 1.0), (PerArrivalSimulator, 2.0)]
)
def test_a_time_behind_the_previous_arrival_raises(simulator_class, raised_at):
    system = saturated_system(simulator_class, [1.5, 2.0, 1.2, 3.0])
    with pytest.raises(ValueError, match=r"in the past: now=2\.000, time=1\.200"):
        system.run(until=300.0)
    # Taken in, the time behind 2.0 raises while the last t=1 arrival is
    # handled; fired one event per arrival, it raises at the 2.0 arrival.
    assert system.simulator.now == raised_at


def test_a_step_back_under_one_nanosecond_is_taken_in_like_an_event():
    runs = []
    for simulator_class in (Simulator, PerArrivalSimulator):
        system = saturated_system(simulator_class, [1.5, 2.0, 2.0 - 5e-10, 3.0])
        summary = system.run(until=300.0).extended_summary_text()
        assert system.stats.completed_count == system.submitted_requests
        runs.append((summary, system.simulator.dispatched_events))
    assert runs[0][0] == runs[1][0]
    # The four arrivals after t=1 were taken in, not fired as events.
    assert runs[0][1] == runs[1][1] - 4


def queue_depth_at_checks(simulator_class):
    """Queue depth after each workload check of a tie run, and its summary.

    Batches of 4096 tokens keep every pipeline busy past the t=30 check, so
    the check is the horizon when the t=1 arrivals are handled, and the
    arrival at t=30 ties with it.
    """
    system = saturated_system(simulator_class, [2.0, 30.0, 31.0], output_tokens=4096)
    sim = system.simulator
    checks = []
    sim.on(
        EventType.WORKLOAD_CHECK,
        lambda event: checks.append((sim.now, system.request_queue.pending)),
    )
    return checks, system.run(until=300.0).extended_summary_text()


def test_an_arrival_tied_with_an_earlier_ordered_event_stays_behind_it():
    checks, summary = queue_depth_at_checks(Simulator)
    assert (checks, summary) == queue_depth_at_checks(PerArrivalSimulator)
    # The check at t=30 ran before the arrival tied with it.
    assert checks[0] == (30.0, 1)
