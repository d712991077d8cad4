"""Streamed arrivals that wait in the request queue as their arrival times.

An arrival the serving system takes in without an event of its own waits
in ``RequestQueue`` as its bare arrival time, and the queue builds its
``Request`` only when a batch takes it.  ``oracles.batching
.RequestPerArrivalQueue`` builds each arrival's request when it is
enqueued, as the queue did before.  Whole perfbench workloads on the two
queues must end with the same extended digest, latencies and ``run(until=)``
boundary states; a stream switch must leave each waiting time its own
stream's token sizes, and a batch that mixes two streams counts each
member's own output tokens; and no waiting time is an object the cyclic
garbage collector tracks.
"""

import gc

import pytest

from oracles.batching import RequestPerArrivalQueue
from oracles.engine import PerArrivalSimulator
from repro.sim.engine import Simulator
from repro.workload.request import Request
from test_arrival_take_in import ListedArrivals, run_workload, saturated_system

#: Admission policies the workloads run under (see ``ADMISSION`` there).
POLICIES = ("deadline-aware", "queue-cap", "token-bucket")


@pytest.mark.parametrize("admission", POLICIES)
@pytest.mark.parametrize("name", ["ingest", "serve"])
def test_waiting_times_match_a_request_built_per_arrival(name, admission):
    digest, latencies, boundaries, events = run_workload(Simulator, name, admission)
    expected = run_workload(Simulator, name, admission, RequestPerArrivalQueue)
    assert boundaries == expected[2]
    assert latencies == expected[1]
    assert digest == expected[0]
    assert events == expected[3]


def waiting_times(system):
    """The queue's entries that are bare arrival times."""
    return [entry for entry in system.request_queue._queue if not isinstance(entry, Request)]


def test_a_stream_switch_keeps_the_waiting_times_own_sizes():
    # 32-token arrivals saturate the fleet, and the stream ends at t=1.3
    # while most of them still wait as times; 128-token arrivals follow
    # once those have drained, so no batch mixes the two.
    first = [1.0 + 0.005 * k for k in range(60)]
    system = saturated_system(Simulator, first, output_tokens=32)
    system.run(until=1.5)
    assert len(waiting_times(system)) > 20
    pipelines = len(system.dataplane.pipelines)
    second = [200.0 + k for k in range(12)]
    system.submit_arrival_process(ListedArrivals(second, output_tokens=128), 300.0)
    stats = system.run(until=300.0)
    streamed = (pipelines + len(first), len(second))
    assert stats.completed_count == system.submitted_requests == sum(streamed)
    assert stats.tokens_generated == 32 * streamed[0] + 128 * streamed[1]


def test_a_batch_that_mixes_output_lengths_counts_each_members_tokens():
    # The 128-token stream starts while most 32-token arrivals still wait,
    # so batches mix the two lengths.  Counting the longest member's
    # length for every member would read 3,936 here.
    first = [1.0 + 0.005 * k for k in range(60)]
    system = saturated_system(Simulator, first, output_tokens=32)
    system.run(until=1.5)
    assert len(system.dataplane.pipelines) == 3
    second = [2.0 + k for k in range(12)]
    system.submit_arrival_process(ListedArrivals(second, output_tokens=128), 300.0)
    stats = system.run(until=300.0)
    assert stats.completed_count == system.submitted_requests == 75
    assert stats.tokens_generated == 32 * 63 + 128 * 12 == 3552


def test_no_waiting_time_is_tracked_by_the_collector():
    system = saturated_system(Simulator, [1.0 + 0.01 * k for k in range(50)])
    system.run(until=2.0)
    times = waiting_times(system)
    assert len(times) > 40
    assert not any(gc.is_tracked(time) for time in times)


@pytest.mark.parametrize("simulator_class", [Simulator, PerArrivalSimulator])
def test_a_time_behind_zero_is_refused_as_its_request_would_be(simulator_class):
    # Every pipeline takes a batch at t=0, so a time under 1 ns behind it
    # is taken in (or, one event per arrival, built into its request).
    system = saturated_system(simulator_class, [0.0, -5e-10, 1.0], start=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        system.run(until=300.0)
