"""Golden-digest equivalence for the simulate-phase fast path.

The PR-3 overhaul replaced three hot-path mechanisms -- pre-scheduled
arrival events became a streaming arrival source, list-based per-request
statistics became incremental aggregates, and the event core was rebuilt
around ``__slots__`` events with lazy heap compaction.  None of that may
move a single byte of the golden digests: this module runs the single-zone
and multi-zone golden scenarios through both arrival paths and both stats
retention modes and pins the resulting ``summary_text`` SHA-256 digests to
the values recorded *before* the overhaul (the same digests CHANGES.md has
carried since PR 2).
"""

import hashlib

import pytest

from repro.core.server import SpotServeSystem
from repro.experiments.runner import run_serving_experiment
from repro.experiments.scenarios import (
    multi_zone_fluctuating_scenario,
    stable_workload_scenario,
)

#: Golden digests recorded on the pre-fast-path event core (PR 2).  These
#: exact values must survive every future perf PR; they are a function only
#: of the seeded numpy draws and IEEE-754 arithmetic, both of which are
#: platform-stable for the pinned scenarios.
SINGLE_ZONE_SHA256 = "13bd9e142347b849dcba2c5f52829a5ca9c7638ccb40c83512c45d80ce4d64b5"
MULTI_ZONE_SHA256 = "33c8a35b9b2764488dda4379defb50adea6283cafdcfed7618b22167ecc8502c"


def prescheduled(stream_arrivals, arrivals, duration):
    """The whole workload as requests, unless it should stream."""
    return None if stream_arrivals else arrivals.generate(duration)


def run_single_zone(stream_arrivals, retain_requests=True):
    scenario = stable_workload_scenario("OPT-6.7B", "AS", duration=400.0)
    options = scenario.options()
    options.retain_completed_requests = retain_requests
    arrivals = scenario.arrival_process()
    return run_serving_experiment(
        SpotServeSystem,
        scenario.model_name,
        scenario.trace,
        arrivals,
        duration=scenario.duration,
        drain_time=200.0,
        options=options,
        requests=prescheduled(stream_arrivals, arrivals, scenario.duration),
    )


def run_multi_zone(stream_arrivals, retain_requests=True):
    scenario, arrivals = multi_zone_fluctuating_scenario("OPT-6.7B", duration=600.0)
    options = scenario.options()
    options.retain_completed_requests = retain_requests
    return run_serving_experiment(
        SpotServeSystem,
        scenario.model_name,
        trace=None,
        arrival_process=arrivals,
        duration=scenario.duration,
        drain_time=300.0,
        options=options,
        zones=scenario.zones,
        allow_spot_requests=True,
        requests=prescheduled(stream_arrivals, arrivals, scenario.duration),
    )


def digest(result) -> str:
    return hashlib.sha256(result.stats.summary_text().encode()).hexdigest()


class TestStreamingArrivalEquivalence:
    def test_single_zone_streaming_matches_prescheduled(self):
        streamed = run_single_zone(stream_arrivals=True)
        prescheduled = run_single_zone(stream_arrivals=False)
        assert streamed.stats.summary_text() == prescheduled.stats.summary_text()
        assert streamed.submitted_requests == prescheduled.submitted_requests
        assert streamed.total_cost == prescheduled.total_cost

    def test_multi_zone_streaming_matches_prescheduled(self):
        streamed = run_multi_zone(stream_arrivals=True)
        prescheduled = run_multi_zone(stream_arrivals=False)
        assert streamed.stats.summary_text() == prescheduled.stats.summary_text()
        assert streamed.submitted_requests == prescheduled.submitted_requests
        assert streamed.cost_by_zone == prescheduled.cost_by_zone


class TestIncrementalStatsEquivalence:
    def test_single_zone_unretained_stats_match(self):
        retained = run_single_zone(stream_arrivals=True, retain_requests=True)
        unretained = run_single_zone(stream_arrivals=True, retain_requests=False)
        assert retained.stats.summary_text() == unretained.stats.summary_text()
        assert unretained.stats.completed_requests == []
        assert unretained.stats.completed_count == retained.stats.completed_count
        assert unretained.latency.mean == retained.latency.mean
        assert unretained.latency.p99 == retained.latency.p99

    def test_multi_zone_unretained_stats_match(self):
        retained = run_multi_zone(stream_arrivals=True, retain_requests=True)
        unretained = run_multi_zone(stream_arrivals=True, retain_requests=False)
        assert retained.stats.summary_text() == unretained.stats.summary_text()
        assert unretained.stats.completed_requests == []


class TestPinnedGoldenDigests:
    """Byte-identity across the whole PR, not just within one test run."""

    def test_single_zone_digest_is_pinned(self):
        assert digest(run_single_zone(stream_arrivals=True)) == SINGLE_ZONE_SHA256

    def test_multi_zone_digest_is_pinned(self):
        assert digest(run_multi_zone(stream_arrivals=True)) == MULTI_ZONE_SHA256


class TestExactTimestampTies:
    """Streamed arrivals must win/lose same-time tie-breaks exactly like
    pre-scheduled ones (regression: a workload check falling on an integer
    FixedArrivals timestamp used to dispatch first in streaming mode)."""

    @staticmethod
    def dispatch_sequence(stream):
        from repro.cloud.provider import CloudProvider
        from repro.cloud.trace import AvailabilityTrace
        from repro.llm.spec import get_model
        from repro.sim.engine import Simulator
        from repro.sim.events import EventType
        from repro.workload.arrival import FixedArrivals

        trace = AvailabilityTrace(
            name="tie", initial_instances=6, events=[], duration=400.0
        )
        simulator = Simulator()
        provider = CloudProvider(simulator, trace)
        system = SpotServeSystem(
            simulator, provider, get_model("GPT-20B"), initial_arrival_rate=0.05
        )
        seen = []
        # Arrivals are recorded as they join the queue: a streamed arrival
        # taken in without an event of its own is seen there too.
        queue = system.request_queue
        enqueue = queue.enqueue

        def recording_enqueue(entry):
            seen.append(("arrival", getattr(entry, "arrival_time", entry)))
            enqueue(entry)

        queue.enqueue = recording_enqueue
        simulator.on(EventType.WORKLOAD_CHECK, lambda e: seen.append(("check", e.time)))
        # The arrival at t=120 ties the workload check at t=120, and the
        # check event is scheduled (at t=90) *before* the streaming source
        # arms the arrival (at t=100) -- the order-sensitive case: without
        # the reserved tie-break slot the check would dispatch first.
        process = FixedArrivals([100.0, 120.0, 200.0])
        if stream:
            system.submit_arrival_process(process, trace.duration)
        else:
            system.submit_requests(process.generate(trace.duration))
        system.initialize()
        stats = system.run(until=trace.duration + 400.0)
        return seen, stats.summary_text()

    def test_tied_timestamps_dispatch_in_identical_order(self):
        streamed_seq, streamed_digest = self.dispatch_sequence(stream=True)
        eager_seq, eager_digest = self.dispatch_sequence(stream=False)
        assert streamed_seq == eager_seq
        assert streamed_digest == eager_digest
        # Sanity: the scenario really does contain exact ties.
        times = [t for _, t in streamed_seq]
        assert len(times) != len(set(times))


class TestOneStreamAtATime:
    """A system streams from one arrival process at a time.

    A second ``submit_arrival_process`` while the first stream still has
    arrivals to come used to replace its iterator: the first stream's
    remaining arrivals vanished and ``submitted_requests`` undercounted.
    """

    @staticmethod
    def build():
        from repro.cloud.provider import CloudProvider
        from repro.cloud.trace import AvailabilityTrace
        from repro.llm.spec import OPT_6_7B
        from repro.sim.engine import Simulator

        simulator = Simulator()
        trace = AvailabilityTrace(name="pinned", initial_instances=4, events=[], duration=300.0)
        system = SpotServeSystem(
            simulator, CloudProvider(simulator, trace), OPT_6_7B, initial_arrival_rate=0.1
        )
        system.initialize()
        return system

    @staticmethod
    def served(system):
        stats = system.run(until=300.0)
        assert stats.completed_count == system.submitted_requests
        return sorted(request.arrival_time for request in stats.completed_requests)

    def test_second_stream_is_refused_at_time_zero(self):
        from repro.workload.arrival import FixedArrivals

        system = self.build()
        system.submit_arrival_process(FixedArrivals([10, 20, 30]), 100.0)
        with pytest.raises(ValueError, match="already streaming"):
            system.submit_arrival_process(FixedArrivals([12, 40]), 100.0)
        assert self.served(system) == [10.0, 20.0, 30.0]
        assert system.submitted_requests == 3

    def test_second_stream_is_refused_mid_stream(self):
        from repro.workload.arrival import FixedArrivals

        system = self.build()
        system.submit_arrival_process(FixedArrivals([10, 20, 30]), 100.0)
        system.run(until=15.0)
        # Refused for being second, before its first time (behind now) is read.
        with pytest.raises(ValueError, match="already streaming"):
            system.submit_arrival_process(FixedArrivals([1.0, 40]), 100.0)
        assert self.served(system) == [10.0, 20.0, 30.0]

    def test_a_new_stream_follows_one_that_ended(self):
        from repro.workload.arrival import FixedArrivals

        system = self.build()
        system.submit_arrival_process(FixedArrivals([10, 20]), 100.0)
        system.run(until=25.0)
        # A first time behind now is refused and leaves no stream active.
        with pytest.raises(ValueError, match="in the past"):
            system.submit_arrival_process(FixedArrivals([1.0, 40]), 100.0)
        assert system.submitted_requests == 2
        system.submit_arrival_process(FixedArrivals([50, 60]), 100.0)
        assert self.served(system) == [10.0, 20.0, 50.0, 60.0]
        assert system.submitted_requests == 4
