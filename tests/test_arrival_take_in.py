"""Arrivals and completions taken in without events, against one event each.

Between two control events the serving system handles the stream's
arrivals and its batches' completions in one loop, in the order their own
events would fire, up to the simulator's horizon (its next pending entry,
capped by the running ``until`` bound), and arms an event only for the
earliest occurrence past it.  ``oracles.engine.PerArrivalSimulator`` has a
horizon that is always ``now``, so the same code fires every arrival and
every completion as an event of its own.  Runs on the two simulators must
end with the same extended digest and latencies, and leave the same state
at every ``run(until=)`` boundary.

Exact ties are pinned against pre-scheduled arrivals and against control
events scheduled before and after a batch starts, whose order the
simulator's heap decides.  A teardown must not strand the completion of a
surviving pipeline, and no armed event may share its heap key with an
entry still in the heap.
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
from repro.workload.request import DEFAULT_INPUT_TOKENS, Request

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


#: The event types the take-in loop handles without events.
DATAPLANE = (EventType.REQUEST_ARRIVAL, EventType.BATCH_COMPLETION)


def count_events(sim):
    """Per-type counts of the events *sim* dispatches from now on."""
    counts = dict.fromkeys(EventType, 0)

    def count(event):
        counts[event.event_type] += 1

    for event_type in EventType:
        sim.on(event_type, count)
    return counts


def assert_fewer_dataplane_events(counts, expected):
    """*counts* has the oracle's control events and fewer dataplane events."""
    assert {t: n for t, n in counts.items() if t not in DATAPLANE} == {
        t: n for t, n in expected.items() if t not in DATAPLANE
    }
    assert sum(counts[t] for t in DATAPLANE) < sum(expected[t] for t in DATAPLANE)


def test_a_time_behind_the_previous_arrival_raises():
    runs = []
    for simulator_class in (Simulator, PerArrivalSimulator):
        system = saturated_system(simulator_class, [1.5, 2.0, 1.2, 3.0])
        counts = count_events(system.simulator)
        with pytest.raises(ValueError, match=r"in the past: now=2\.000, time=1\.200"):
            system.run(until=300.0)
        runs.append((system.simulator.now, counts))
    (now, counts), (expected_now, expected) = runs
    # Both raise when the time after 2.0 is drawn, with ``now`` at 2.0: the
    # oracle in the 2.0 arrival's own event, the loop in the event of the
    # last t=1 arrival, which took in the arrivals up to 2.0.
    assert now == expected_now == 2.0
    assert_fewer_dataplane_events(counts, expected)


def test_a_step_back_under_one_nanosecond_is_taken_in_like_an_event():
    runs = []
    for simulator_class in (Simulator, PerArrivalSimulator):
        system = saturated_system(simulator_class, [1.5, 2.0, 2.0 - 5e-10, 3.0])
        counts = count_events(system.simulator)
        summary = system.run(until=300.0).extended_summary_text()
        assert system.stats.completed_count == system.submitted_requests
        runs.append((summary, counts, system.submitted_requests))
    assert runs[0][0] == runs[1][0]
    # The oracle fires each arrival as an event; the loop takes some in.
    assert runs[1][1][EventType.REQUEST_ARRIVAL] == runs[1][2] == 7
    assert_fewer_dataplane_events(runs[0][1], runs[1][1])


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


def two_pipelines(simulator_class):
    """Two pinned pipelines of batch size 8, each taking a one-request batch at t=1."""
    sim = simulator_class()
    trace = AvailabilityTrace(name="pinned", initial_instances=2, events=[], duration=300.0)
    system = SpotServeSystem(sim, CloudProvider(sim, trace), OPT_6_7B, initial_arrival_rate=1.0)
    system.initialize()
    config = system.current_config
    assert (config.data_degree, config.batch_size) == (2, 8)
    system.submit_requests([Request(1.0), Request(1.0)])
    return system


def completion_time():
    """When the two t=1 batches of :func:`two_pipelines` complete."""
    system = two_pipelines(Simulator)
    system.run(until=1.2)
    (first, *_), (second, *_) = system.dataplane.completions
    assert first == second
    return first


def tied_arrival_run(simulator_class, streamed, arrival_first):
    """A request queued at t=1.5, then an arrival tied with the t=1 batches' completions.

    The arrival is submitted before the batches start (``arrival_first``:
    its tie-break slot sorts before theirs) or after.  Streamed, the take-in
    loop orders the tie; pre-scheduled, its own event and the simulator's
    heap do.
    """
    tie = completion_time()
    system = two_pipelines(simulator_class)
    system.submit_requests([Request(1.5)])
    if not arrival_first:
        system.run(until=1.2)
    if streamed:
        system.submit_arrival_process(ListedArrivals([tie]), 300.0)
    else:
        system.submit_requests([Request(tie)])
    stats = system.run(until=300.0)
    assert stats.completed_count == 4
    return stats.extended_summary_text(), stats.latencies()


@pytest.mark.parametrize("simulator_class", [Simulator, PerArrivalSimulator])
def test_an_arrival_tied_with_a_completion_sorts_by_its_order(simulator_class):
    runs = {}
    for arrival_first in (True, False):
        runs[arrival_first] = tied_arrival_run(simulator_class, True, arrival_first)
        assert runs[arrival_first] == tied_arrival_run(simulator_class, False, arrival_first)
    # Ahead of the completion, the arrival joins the t=1.5 request's batch;
    # behind it, it starts a batch of its own on the other pipeline.
    assert runs[True][1] != runs[False][1]


def completed_at_a_tied_check(simulator_class, check_first):
    """Requests completed when a control event tied with a batch's completion runs.

    The control event is scheduled before the batch starts (``check_first``:
    its tie-break slot sorts before the completion's) or after.
    """
    tie = completion_time()
    system = two_pipelines(simulator_class)
    sim = system.simulator
    seen = []

    def check(_event):
        seen.append(system.stats.completed_count)

    if not check_first:
        system.run(until=1.2)
    sim.schedule_at(tie, EventType.GENERIC, callback=check)
    system.run(until=300.0)
    return seen


@pytest.mark.parametrize("simulator_class", [Simulator, PerArrivalSimulator])
def test_a_completion_tied_with_a_control_event_sorts_by_its_order(simulator_class):
    assert completed_at_a_tied_check(simulator_class, check_first=True) == [0]
    assert completed_at_a_tied_check(simulator_class, check_first=False) == [2]


def keys_of_armed_events(system):
    """Wrap *system*'s ``schedule_at``; return the heap keys its armed events took.

    Each key is checked against every entry already in the heap, cancelled
    ones included: two equal keys would make the heap compare the events.
    """
    sim = system.simulator
    schedule_at = sim.schedule_at
    keys = []

    def checked(time, event_type=EventType.GENERIC, payload=None, callback=None, order=None):
        if order is not None:
            key = (max(time, sim.now), *order)
            assert all(entry[:3] != key for entry in sim._heap), key
            keys.append(key)
        return schedule_at(time, event_type, payload, callback, order)

    sim.schedule_at = checked
    return keys


def test_no_armed_event_shares_a_heap_key():
    work = workloads.build("serve", 0, SIZES["serve"])
    scenario = work.scenario
    sim = Simulator()
    system = SpotServeSystem(
        sim,
        CloudProvider(sim, None, zones=scenario.zones, allow_spot_requests=work.allow_spot_requests),
        get_model(scenario.model_name),
        options=scenario.options(),
        initial_arrival_rate=1.0,
    )
    keys = keys_of_armed_events(system)
    system.submit_arrival_process(work.arrivals, scenario.duration)
    system.initialize()
    system.run(until=scenario.duration + work.drain_time)
    # Each migration's end dispatches batches, and their completions are
    # armed ahead of an arrival already armed.
    assert system.stats.reconfigurations
    assert len(keys) > 40
