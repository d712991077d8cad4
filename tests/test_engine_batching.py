"""Tests for the request queue and batch formation."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from oracles import batching as batching_oracle
from repro.engine.batching import RequestQueue
from repro.engine.pipeline import InferencePipeline, PipelineAssignment
from repro.engine.placement import TopologyPosition
from repro.llm.costmodel import LatencyModel
from repro.llm.spec import GPT_20B
from repro.workload.request import Request


def make_requests(n, start=0.0):
    return [Request(arrival_time=start + i, output_tokens=16) for i in range(n)]


#: Members as (input tokens, output tokens, tokens committed before joining):
#: mixed lengths, and progress out of step across the members.
MEMBERS = st.lists(
    st.tuples(st.integers(1, 64), st.integers(1, 24), st.integers(0, 30)),
    min_size=1,
    max_size=5,
)


#: Request fields a batch's start and completion may change.
REQUEST_STATE = (
    "committed_tokens",
    "first_start_time",
    "completion_time",
    "recomputed_tokens",
)

#: One cost model for every pipeline the state machine builds.
LATENCY_MODEL = LatencyModel(GPT_20B)


def request_state(request):
    return tuple(getattr(request, name) for name in REQUEST_STATE)


def clone(request):
    """A request with *request*'s shape and its current progress."""
    copy = Request(
        request.arrival_time, request.input_tokens, request.output_tokens, request.request_id
    )
    for name in REQUEST_STATE:
        setattr(copy, name, getattr(request, name))
    return copy


class BatchAggregates(RuleBasedStateMachine):
    """A batch's fixed shape and progress field against the member walk.

    ``start_and_complete`` also checks the pipeline's one walk per start
    and per completion against the member walks they replaced, on members
    of different lengths whose progress is out of step.
    """

    def _build(self, members, carried=()):
        requests = list(carried)
        for input_tokens, output_tokens, committed in members:
            request = Request(
                arrival_time=0.0, input_tokens=input_tokens, output_tokens=output_tokens
            )
            request.commit_tokens(committed)
            requests.append(request)
        self.batch = batching_oracle.build(requests)

    @initialize(members=MEMBERS)
    def build(self, members):
        self._build(members)

    @rule(members=MEMBERS, carry=st.booleans())
    def rebuild(self, members, carry):
        """A new batch, which may take over the last one's requests and progress."""
        self._build(members, self.batch.requests if carry else ())

    @rule(count=st.integers(0, 30))
    def commit_tokens(self, count):
        self.batch.commit_tokens(count)

    @rule()
    def drop_cache(self):
        self.batch.drop_cache()

    @rule(start=st.integers(0, 40), duration=st.integers(0, 40), resume=st.booleans())
    def start_and_complete(self, start, duration, resume):
        expected = batching_oracle.build([clone(request) for request in self.batch.requests])
        batching_oracle.start_and_complete(expected, start, start + duration, resume)
        assignment = PipelineAssignment(0, 1, 1, {TopologyPosition(0, 0, 0): ("inst-0", 0)})
        pipeline = InferencePipeline(assignment, LATENCY_MODEL, self.batch.size, ())
        pipeline.start_batch(self.batch, start, resume=resume)
        assert pipeline.complete_batch(start + duration) is self.batch
        assert not pipeline.is_busy
        assert all(r.committed_tokens == r.output_tokens for r in self.batch.requests)
        assert [request_state(r) for r in self.batch.requests] == [
            request_state(r) for r in expected.requests
        ]
        assert self.batch.committed_tokens == expected.committed_tokens

    @invariant()
    def aggregates_match_the_member_walk(self):
        for aggregate in batching_oracle.AGGREGATES:
            assert getattr(self.batch, aggregate.__name__) == aggregate(self.batch), (
                aggregate.__name__
            )


TestBatchAggregates = BatchAggregates.TestCase
TestBatchAggregates.settings = settings(max_examples=60, stateful_step_count=25, deadline=None)


#: Arrival times: ties, in any order, and ints as a custom arrival
#: process may yield them.
TIMES = st.one_of(st.integers(0, 12).map(lambda t: t / 2), st.integers(0, 6))

#: A stream's (input tokens, output tokens).
SIZES = st.tuples(st.sampled_from([16, 512]), st.sampled_from([32, 128]))


def request_view(request):
    return request.arrival_time, request.input_tokens, request.output_tokens


def entry_view(queue, entry):
    """A waiting entry as (arrival time, input tokens, output tokens)."""
    if isinstance(entry, Request):
        return request_view(entry)
    return entry, queue.input_tokens, queue.output_tokens


class QueueOfTimes(RuleBasedStateMachine):
    """The queue of times and requests against one that holds requests only.

    A stream switch changes the sizes later times are built with, so the
    times still waiting must keep their own stream's sizes.
    """

    def __init__(self):
        super().__init__()
        self.queue = RequestQueue(max_batch_size=3)
        self.oracle = batching_oracle.RequestPerArrivalQueue(max_batch_size=3)
        #: The last batch each queue handed out, for ``enqueue_front``.
        self.taken = ([], [])

    @rule(time=TIMES)
    def enqueue_time(self, time):
        self.queue.enqueue(time)
        self.oracle.enqueue(time)

    @rule(time=TIMES, sizes=SIZES)
    def enqueue_request(self, time, sizes):
        self.queue.enqueue(Request(time, *sizes))
        self.oracle.enqueue(Request(time, *sizes))

    @rule(sizes=SIZES)
    def switch_stream(self, sizes):
        self.queue.set_token_sizes(*sizes)
        self.oracle.set_token_sizes(*sizes)

    @rule(limit=st.one_of(st.none(), st.integers(1, 4)))
    def next_batch(self, limit):
        batch = self.queue.next_batch(limit)
        expected = self.oracle.next_batch(limit)
        if expected is None:
            assert batch is None
            return
        assert [request_view(r) for r in batch.requests] == [
            request_view(r) for r in expected.requests
        ]
        self.taken = (batch.requests, expected.requests)

    @rule()
    def enqueue_front(self):
        """Put the last batch back at the front, as an interruption does."""
        self.queue.enqueue_front(self.taken[0])
        self.oracle.enqueue_front(self.taken[1])
        self.taken = ([], [])

    @rule(cutoff=st.integers(-1, 13).map(lambda t: t / 2))
    def shed_before(self, cutoff):
        shed = self.queue.shed_before(cutoff)
        expected = self.oracle.shed_before(cutoff)
        assert [entry_view(self.queue, entry)[0] for entry in shed] == [
            request.arrival_time for request in expected
        ]

    @invariant()
    def queues_agree(self):
        assert self.queue.pending == self.oracle.pending
        assert [entry_view(self.queue, entry) for entry in self.queue._queue] == [
            request_view(request) for request in self.oracle._queue
        ]


TestQueueOfTimes = QueueOfTimes.TestCase
TestQueueOfTimes.settings = settings(max_examples=80, stateful_step_count=30, deadline=None)


class TestBatch:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batching_oracle.build([])

    def test_progress_tracks_slowest_request(self):
        requests = make_requests(3)
        requests[0].commit_tokens(5)
        batch = batching_oracle.build(requests)
        assert batch.committed_tokens == 0
        assert batch.remaining_tokens == 16

    def test_commit_tokens_applies_to_all(self):
        batch = batching_oracle.build(make_requests(4))
        batch.commit_tokens(6)
        assert all(r.committed_tokens == 6 for r in batch.requests)
        assert batch.remaining_tokens == 10
        batch.commit_tokens(10)
        assert all(r.committed_tokens == r.output_tokens for r in batch.requests)
        assert batch.remaining_tokens == 0

    def test_drop_cache_resets_all(self):
        batch = batching_oracle.build(make_requests(2))
        batch.commit_tokens(6)
        batch.drop_cache()
        assert batch.committed_tokens == 0
        assert all(r.recomputed_tokens == 6 for r in batch.requests)

    def test_unique_batch_ids(self):
        first, second = (batching_oracle.build(make_requests(1)) for _ in range(2))
        assert first.batch_id != second.batch_id

    def test_undeclared_attributes_are_refused(self):
        request = make_requests(1)[0]
        batch = batching_oracle.build([request])
        for instance in (request, batch):
            assert not hasattr(instance, "__dict__")
            with pytest.raises(AttributeError):
                instance.undeclared = True


class TestRequestQueue:
    def test_fifo_order(self):
        queue = RequestQueue(max_batch_size=2)
        requests = make_requests(3)
        for request in requests:
            queue.enqueue(request)
        batch = queue.next_batch()
        assert batch.requests == requests[:2]
        assert queue.pending == 1

    def test_next_batch_empty_returns_none(self):
        assert RequestQueue().next_batch() is None

    def test_batch_size_override(self):
        queue = RequestQueue(max_batch_size=8)
        for request in make_requests(5):
            queue.enqueue(request)
        batch = queue.next_batch(max_batch_size=3)
        assert batch.size == 3

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            RequestQueue(max_batch_size=0)
        queue = RequestQueue()
        queue.enqueue(make_requests(1)[0])
        with pytest.raises(ValueError):
            queue.next_batch(max_batch_size=0)

    def test_a_time_waits_bare_until_a_batch_builds_its_request(self):
        queue = RequestQueue(max_batch_size=2)
        queue.set_token_sizes(64, 32)
        queue.enqueue(3.0)
        assert list(queue._queue) == [3.0]
        (request,) = queue.next_batch().requests
        assert request_view(request) == (3.0, 64, 32)

    def test_a_stream_switch_keeps_the_waiting_times_sizes(self):
        queue = RequestQueue(max_batch_size=4)
        queue.set_token_sizes(64, 32)
        queue.enqueue(1.0)
        queue.set_token_sizes(64, 128)
        queue.enqueue(2.0)
        batch = queue.next_batch()
        assert [request_view(r) for r in batch.requests] == [(1.0, 64, 32), (2.0, 64, 128)]

    def test_a_waiting_time_is_checked_when_its_request_is_built(self):
        queue = RequestQueue()
        queue.enqueue(-1.0)
        with pytest.raises(ValueError, match="non-negative"):
            queue.next_batch()
        for bad in (float("nan"), float("inf")):
            queue = RequestQueue()
            queue.enqueue(bad)
            with pytest.raises(ValueError, match="finite"):
                queue.next_batch()

    @pytest.mark.parametrize(
        "sizes", [(0, 32), (64, -1), (64, 2.5), ("64", 32), (64, None), (float("nan"), 32)]
    )
    def test_a_bad_stream_size_leaves_the_queue_as_it_was(self, sizes):
        queue = RequestQueue()
        queue.set_token_sizes(64, 32)
        queue.enqueue(1.0)
        with pytest.raises(ValueError, match="positive integer"):
            queue.set_token_sizes(*sizes)
        assert list(queue._queue) == [1.0]
        assert (queue.input_tokens, queue.output_tokens) == (64, 32)

    def test_enqueue_front_preserves_relative_order(self):
        queue = RequestQueue(max_batch_size=4)
        tail = make_requests(2, start=100.0)
        for request in tail:
            queue.enqueue(request)
        interrupted = make_requests(2, start=0.0)
        queue.enqueue_front(interrupted)
        batch = queue.next_batch()
        assert batch.requests == interrupted + tail


def slots(instance, *skipped):
    """Every ``__slots__`` entry of *instance* but *skipped*; an unset one raises."""
    names = [name for name in type(instance).__slots__ if name not in skipped]
    return {name: getattr(instance, name) for name in names}


def requeued(arrival_time, input_tokens, output_tokens, committed):
    """A request that waited as itself, with decoding progress."""
    request = Request(arrival_time, input_tokens, output_tokens)
    request.commit_tokens(committed)
    return request


class TestBuiltInOneWalk:
    """``next_batch`` builds requests and batches slot for slot as the constructors do."""

    @pytest.mark.parametrize("mix", ["bare times", "requests", "mixed"])
    def test_every_slot_matches_the_constructors(self, mix):
        times = [] if mix == "requests" else [1.0, 2.5, 4]
        waiting = []
        if mix != "bare times":
            waiting = [requeued(0.5, 16, 128, 40), requeued(0.75, 96, 24, 3)]
        queue = RequestQueue(max_batch_size=8)
        queue.set_token_sizes(64, 32)
        for time in times:
            queue.enqueue(time)
        queue.enqueue_front(waiting)
        batch = queue.next_batch()
        assert queue.pending == 0
        assert batch.requests[: len(waiting)] == waiting
        built = batch.requests[len(waiting) :]
        assert [slots(request, "request_id") for request in built] == [
            slots(Request(time, 64, 32), "request_id") for time in times
        ]
        if built:  # Consecutive ids, from the counter ``Request`` draws from.
            first = built[0].request_id
            assert [r.request_id for r in built] == list(range(first, first + len(built)))
        expected = batching_oracle.build(batch.requests)
        assert slots(batch, "batch_id") == slots(expected, "batch_id")
        assert batch.batch_id != expected.batch_id

    @given(
        entries=st.lists(
            st.one_of(
                st.tuples(st.just("time"), TIMES),
                st.tuples(st.just("request"), TIMES, SIZES, st.integers(0, 140), st.booleans()),
                st.tuples(st.just("switch"), SIZES),
            ),
            min_size=1,
            max_size=14,
        ),
        limit=st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_batch_shape_matches_the_member_walks(self, entries, limit):
        queue = RequestQueue(max_batch_size=8)
        for kind, *values in entries:
            if kind == "time":
                queue.enqueue(values[0])
            elif kind == "request":
                time, sizes, committed, front = values
                request = requeued(time, *sizes, committed)
                if front:
                    queue.enqueue_front([request])
                else:
                    queue.enqueue(request)
            else:
                queue.set_token_sizes(*values[0])
        while queue.pending:
            batch = queue.next_batch(limit)
            assert batch.size == min(limit, batch.size + queue.pending)
            for aggregate in batching_oracle.AGGREGATES:
                assert getattr(batch, aggregate.__name__) == aggregate(batch), aggregate.__name__
