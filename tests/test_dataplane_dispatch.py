"""Dispatch from the dataplane's idle-pipeline index.

:class:`~repro.core.dataplane.Dataplane` claims idle pipelines from a
min-heap of their list positions.  The reference,
:class:`oracles.dataplane.ReferenceDataplane`, scans every pipeline's
``is_busy`` on every event.  These tests pin the two together:

* whole serving runs through a preemption wave, a zone outage with
  evacuation, a full-fleet halt and recovery, and the rerouting baseline's
  pipeline additions produce byte-identical extended summaries;
* random sequences of dataplane operations leave both with the same
  busy/idle pipeline sequence, queue and resumable batches after every
  step, and the index always holds exactly the idle positions (each
  dataplane belongs to a serving system with no fleet, whose events
  complete its batches);
* on a saturated fleet, arrivals read no ``is_busy`` at all (the scan
  reads it once per pipeline per arrival).
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.server as server_module
from repro.baselines.rerouting import RequestReroutingSystem
from repro.cloud.provider import CloudProvider
from repro.cloud.trace import AvailabilityTrace, TraceEvent, TraceEventKind
from repro.core.config import ParallelConfig
from repro.core.dataplane import Dataplane
from repro.core.server import SpotServeSystem
from repro.engine.pipeline import InferencePipeline
from repro.engine.placement import TopologyPosition
from repro.experiments.runner import run_scenario_experiment
from repro.experiments.scenarios import zone_outage_scenario
from repro.llm.spec import GPT_20B, OPT_6_7B
from repro.sim.engine import Simulator
from repro.workload.arrival import FixedArrivals, GammaArrivals
from repro.workload.request import Request

from oracles.dataplane import ReferenceDataplane
from oracles.engine import step


# ----------------------------------------------------------------------
# Whole runs: production index against the scanning reference
# ----------------------------------------------------------------------
#: Simulated seconds of arrivals in the single-zone runs.
DURATION = 900.0


def build(system_cls, model, instances, events, arrivals):
    """A serving system on a one-zone trace, with *arrivals* submitted."""
    simulator = Simulator()
    trace = AvailabilityTrace(
        name="dispatch", initial_instances=instances, events=list(events), duration=DURATION
    )
    system = system_cls(
        simulator, CloudProvider(simulator, trace), model, initial_arrival_rate=arrivals.rate
    )
    system.submit_requests(arrivals.generate(DURATION))
    return system


def preemption_wave():
    system = build(
        SpotServeSystem,
        OPT_6_7B,
        instances=8,
        events=[TraceEvent(300.0, TraceEventKind.PREEMPT, 3)],
        arrivals=GammaArrivals(rate=2.0, cv=2.0, seed=4),
    )
    stats = system.run(until=1500.0)
    assert stats.preemption_notices == 3
    assert stats.interrupted_batches > 0
    return stats


def zone_outage_evacuation():
    scenario, arrivals = zone_outage_scenario("OPT-6.7B")
    stats = run_scenario_experiment(scenario, arrivals, drain_time=300.0).stats
    assert stats.zone_outages == 1
    assert stats.requests_rerouted > 0
    return stats


def halt_and_recovery():
    system = build(
        SpotServeSystem,
        GPT_20B,
        instances=3,
        events=[
            TraceEvent(200.0, TraceEventKind.PREEMPT, 3),
            TraceEvent(500.0, TraceEventKind.ACQUIRE, 3),
        ],
        arrivals=GammaArrivals(rate=0.3, cv=2.0, seed=2),
    )
    system.run(until=450.0)
    assert system.current_config is None
    assert system.dataplane.pipelines == []
    stats = system.run(until=1800.0)
    assert system.current_config is not None
    assert stats.completed_count == system.submitted_requests
    return stats


def rerouting_pipeline_additions():
    system = build(
        RequestReroutingSystem,
        OPT_6_7B,
        instances=8,
        events=[
            TraceEvent(150.0, TraceEventKind.PREEMPT, 3),
            TraceEvent(400.0, TraceEventKind.ACQUIRE, 3),
        ],
        arrivals=GammaArrivals(rate=1.5, cv=2.0, seed=5),
    )
    stats = system.run(until=1500.0)
    assert any(r.reason == "pipeline-added" for r in stats.reconfigurations)
    return stats


@pytest.mark.parametrize(
    "scenario",
    [preemption_wave, zone_outage_evacuation, halt_and_recovery, rerouting_pipeline_additions],
    ids=lambda scenario: scenario.__name__,
)
def test_index_matches_the_scan_on_whole_runs(monkeypatch, scenario):
    summaries = []
    for dataplane_cls in (Dataplane, ReferenceDataplane):
        monkeypatch.setattr(server_module, "Dataplane", dataplane_cls)
        summaries.append(scenario().extended_summary_text())
    assert summaries[0] == summaries[1]


# ----------------------------------------------------------------------
# Random operation sequences, step by step
# ----------------------------------------------------------------------
def serving_dataplane(simulator, dataplane_cls):
    """A *dataplane_cls* dataplane of a serving system with no fleet.

    The system arms the events that complete the dataplane's batches.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server_module, "Dataplane", dataplane_cls)
        trace = AvailabilityTrace(name="none", initial_instances=0, events=[], duration=1.0)
        return SpotServeSystem(simulator, CloudProvider(simulator, trace), OPT_6_7B).dataplane


class Side:
    """One dataplane on its own simulator, fed the same operations as its twin."""

    def __init__(self, dataplane_cls):
        self.simulator = Simulator()
        self.dataplane = serving_dataplane(self.simulator, dataplane_cls)
        self.request_ids = itertools.count()
        self.extra_indices = itertools.count(100)

    def apply(self, op):
        dataplane, name, args = self.dataplane, op[0], op[1:]
        now = self.simulator.now
        if name == "deploy":
            data_degree, batch_size = args
            dataplane.deploy(
                ParallelConfig(data_degree, 1, 1, batch_size),
                # Two GPUs per instance, so one teardown can hit two pipelines.
                {(f"i{k // 2}", k % 2): TopologyPosition(k, 0, 0) for k in range(data_degree)},
            )
        elif name == "add":
            index = next(self.extra_indices)
            shape = dataplane.config or ParallelConfig(1, 1, 1, 2)
            dataplane.add_pipeline(shape, index, [(f"x{index}", 0)])
        elif name == "arrive":
            for tokens in args[0]:
                dataplane.queue.enqueue(
                    Request(
                        arrival_time=now, output_tokens=tokens, request_id=next(self.request_ids)
                    )
                )
            dataplane.dispatch()
        elif name == "step":
            step(self.simulator)
        elif name == "advance":
            self.simulator.run(until=now + args[0])
        elif name == "teardown":
            dataplane.teardown({f"i{args[0]}"})
        elif name == "interrupt":
            for batch in dataplane.interrupt_all(preserve_cache=args[0]):
                dataplane.reroute(batch)
            dataplane.dispatch()
        elif name == "suspend":
            preserve_cache, keep, stall = args
            interrupted = dataplane.interrupt_all(preserve_cache)
            dataplane.suspend(interrupted[:keep], interrupted[keep:], now + stall)
        elif name == "halt":
            dataplane.halt(preserve_cache=args[0])

    def snapshot(self):
        dataplane = self.dataplane
        return (
            self.simulator.now,
            [
                (pipeline.pipeline_index, batch_ids(pipeline.current_batch))
                for pipeline in dataplane.pipelines
            ],
            [request.request_id for request in dataplane.queue._queue],
            [batch_ids(batch) for batch in dataplane.resume_batches],
            dataplane.stats.extended_summary_text(),
        )


def batch_ids(batch):
    return None if batch is None else tuple(r.request_id for r in batch.requests)


def operations():
    arrive = st.tuples(st.just("arrive"), st.lists(st.integers(1, 64), min_size=1, max_size=6))
    return st.lists(
        st.one_of(
            st.tuples(st.just("deploy"), st.integers(1, 6), st.integers(1, 3)),
            st.tuples(st.just("add")),
            arrive,
            arrive,  # Twice, so queues build up between the other operations.
            st.tuples(st.just("step")),
            st.tuples(st.just("advance"), st.sampled_from([0.5, 2.0, 10.0])),
            st.tuples(st.just("teardown"), st.integers(0, 3)),
            st.tuples(st.just("interrupt"), st.booleans()),
            st.tuples(
                st.just("suspend"), st.booleans(), st.integers(0, 3), st.sampled_from([0.0, 1.0])
            ),
            st.tuples(st.just("halt"), st.booleans()),
        ),
        max_size=40,
    )


@settings(max_examples=120, deadline=None)
@given(operations())
# A deployment over busy pipelines: their batches complete afterwards and
# must return no position to the new deployment's index.
@example([("deploy", 2, 1), ("arrive", [4, 4]), ("deploy", 2, 1), ("advance", 10.0)])
def test_random_operations_match_the_scan_step_by_step(ops):
    indexed, scanned = Side(Dataplane), Side(ReferenceDataplane)
    for op in ops:
        indexed.apply(op)
        scanned.apply(op)
        assert indexed.snapshot() == scanned.snapshot(), op
        dataplane = indexed.dataplane
        idle = [i for i, p in enumerate(dataplane.pipelines) if p.current_batch is None]
        assert sorted(dataplane.idle) == idle, op


@pytest.mark.parametrize("dataplane_cls", [Dataplane, ReferenceDataplane])
@pytest.mark.parametrize("interrupt", ["interrupt_all", "teardown"])
def test_an_interrupted_batch_is_completed_by_neither_entry_nor_event(interrupt, dataplane_cls):
    side = Side(dataplane_cls)
    side.apply(("deploy", 2, 1))
    side.apply(("arrive", [4, 4]))
    dataplane = side.dataplane
    pipelines = list(dataplane.pipelines)
    entries = [pipeline.completion for pipeline in pipelines]
    assert sorted(dataplane.completions) == sorted(entries)
    # The earlier completion holds the system's one armed event.
    armed = [pipeline.completion_event for pipeline in pipelines]
    assert armed[0] is not None and not armed[0].cancelled and armed[1] is None
    if interrupt == "interrupt_all":
        dataplane.interrupt_all(preserve_cache=True)
    else:
        dataplane.teardown({"i0"})  # Both pipelines' GPUs live on i0.
    assert armed[0].cancelled
    assert all(p.completion is None and p.completion_event is None for p in pipelines)
    # Both entries are stale: no event fires and no request completes.
    assert side.simulator.run() == 0
    assert dataplane.stats.completed_count == 0
    assert dataplane.completions == []


def test_a_teardown_of_the_armed_completion_strands_no_survivor():
    simulator = Simulator()
    dataplane = serving_dataplane(simulator, Dataplane)
    dataplane.deploy(
        ParallelConfig(2, 1, 1, 1),
        {("i0", 0): TopologyPosition(0, 0, 0), ("i1", 0): TopologyPosition(1, 0, 0)},
    )
    dataplane.queue.enqueue(Request(0.0, output_tokens=4))
    dataplane.queue.enqueue(Request(0.0, output_tokens=64))
    dataplane.dispatch()
    doomed, survivor = dataplane.pipelines
    # The earlier completion holds the one armed event; the survivor's none.
    assert doomed.completion[0] < survivor.completion[0]
    assert doomed.completion_event is not None and survivor.completion_event is None
    request = survivor.current_batch.requests[0]
    finish_time = survivor.completion[0]
    dataplane.teardown({"i0"})
    simulator.run()
    assert request.completion_time == finish_time
    # The torn-down batch's request was re-queued, and the survivor served it next.
    assert dataplane.stats.completed_count == 2


# ----------------------------------------------------------------------
# A saturated fleet reads no pipeline state per arrival
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "dataplane_cls, reads_per_pipeline",
    [(Dataplane, 0), (ReferenceDataplane, 1)],
    ids=["index", "scan"],
)
def test_saturated_fleet_arrivals_read_no_pipeline_state(
    monkeypatch, dataplane_cls, reads_per_pipeline
):
    monkeypatch.setattr(server_module, "Dataplane", dataplane_cls)
    simulator = Simulator()
    trace = AvailabilityTrace(name="pinned", initial_instances=8, events=[], duration=60.0)
    system = SpotServeSystem(
        simulator, CloudProvider(simulator, trace), OPT_6_7B, initial_arrival_rate=5.0
    )
    system.initialize()
    config = system.current_config
    assert config.data_degree > 1
    # One request per pipeline at t=0.5 (arriving one by one, each starts
    # its own batch), then 1,000 arrivals well inside those batches' ~5 s
    # execution time.
    saturate = [0.5] * config.data_degree
    arrivals = [1.0 + 0.002 * i for i in range(1000)]
    system.submit_requests(FixedArrivals(saturate + arrivals).generate(60.0))
    simulator.run(until=0.75)
    assert all(pipeline.current_batch is not None for pipeline in system.dataplane.pipelines)

    reads = []
    busy = InferencePipeline.is_busy

    def counted_busy(pipeline):
        reads.append(pipeline)
        return busy.fget(pipeline)

    monkeypatch.setattr(InferencePipeline, "is_busy", property(counted_busy))
    simulator.run(until=3.5)
    assert system.stats.completed_count == 0
    assert system.request_queue.pending == 1000
    # Per arrival, the scan reads every (busy) pipeline once.
    assert len(reads) == reads_per_pipeline * config.data_degree * 1000
