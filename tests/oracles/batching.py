"""Member-walk reference for a batch's aggregates, and a queue of requests only.

:class:`~repro.engine.batching.Batch` stores the shape it is given
(``size``, ``input_tokens``, ``output_tokens``, ``shortest_output``) and
keeps its progress (``committed_tokens``) as a field that ``commit_tokens``
and ``drop_cache`` update;
:meth:`~repro.engine.batching.RequestQueue.next_batch` derives the shape
while it takes the members.  Each function here derives one aggregate from
the member requests on every read, the way the batch used to; the batching
suite checks that the two agree after every step.  :func:`build` is the
batch constructor as it was: the member walks, then the batch.  Tests that
need a batch of given requests build it there.

:func:`start_and_complete` is the other half: a batch's start and
completion as the member walks they used to be, which
``InferencePipeline.start_batch`` and ``complete_batch`` now do in one walk
each.

:class:`RequestPerArrivalQueue` is the request queue as it was when every
waiting arrival was a :class:`~repro.workload.request.Request` built at
arrival: ``enqueue`` builds a time's request at once, with the sizes of
the stream it came from.  The production
:class:`~repro.engine.batching.RequestQueue` keeps a streamed arrival as
its bare time and builds its request only when a batch takes it; the
queue suites drive both with the same operations, and the serving suites
run whole workloads on each.
"""

from collections import deque

from repro.engine.batching import Batch, RequestQueue
from repro.workload.request import Request


def size(batch):
    """Number of requests in the batch."""
    return len(batch.requests)


def input_tokens(batch):
    """The longest prompt among the members."""
    return max(request.input_tokens for request in batch.requests)


def output_tokens(batch):
    """The longest output among the members."""
    return max(request.output_tokens for request in batch.requests)


def shortest_output(batch):
    """The shortest output among the members."""
    return min(request.output_tokens for request in batch.requests)


def committed_tokens(batch):
    """The smallest decoding progress among the members."""
    return min(request.committed_tokens for request in batch.requests)


def remaining_tokens(batch):
    """Output tokens still to generate for the slowest member."""
    return max(request.remaining_tokens for request in batch.requests)


#: Every aggregate, each named like the ``Batch`` attribute it pins.
AGGREGATES = (
    size,
    input_tokens,
    output_tokens,
    shortest_output,
    committed_tokens,
    remaining_tokens,
)


def build(requests):
    """A ``Batch`` of *requests*, its shape derived by the member walks."""
    if not requests:
        raise ValueError("a batch must contain at least one request")
    return Batch(
        requests,
        len(requests),
        max(request.input_tokens for request in requests),
        max(request.output_tokens for request in requests),
        min(request.output_tokens for request in requests),
        min(request.committed_tokens for request in requests),
    )


def start_and_complete(batch, start, end, resume):
    """Start *batch* at *start* and complete it at *end*, member by member.

    A start without ``resume`` drops committed progress, and each member
    keeps its first start time.  Completion commits the batch's remainder
    on every member (``Batch.commit_tokens``, one ``Request.commit_tokens``
    each) and then stamps each member's completion time.
    """
    if not resume and batch.committed_tokens > 0:
        batch.drop_cache()
    for request in batch.requests:
        if request.first_start_time is None:
            request.first_start_time = start
    remaining = batch.output_tokens - batch.committed_tokens
    if remaining > 0:
        batch.commit_tokens(remaining)
    for request in batch.requests:
        request.completion_time = end


class RequestPerArrivalQueue(RequestQueue):
    """A queue in which every waiting entry is a ``Request``.

    ``enqueue`` turns a bare arrival time into its request at once, so a
    later change of token sizes has nothing to relabel, ``next_batch`` pops
    requests as they are and ``shed_before`` reads each one's arrival time.
    """

    def enqueue(self, entry):
        if not isinstance(entry, Request):
            entry = Request(entry, self.input_tokens, self.output_tokens)
        self._queue.append(entry)

    def set_token_sizes(self, input_tokens, output_tokens):
        self.input_tokens = input_tokens
        self.output_tokens = output_tokens

    def next_batch(self, max_batch_size=None):
        limit = max_batch_size if max_batch_size is not None else self.max_batch_size
        if limit <= 0:
            raise ValueError("max_batch_size must be positive")
        if not self._queue:
            return None
        members = []
        while self._queue and len(members) < limit:
            members.append(self._queue.popleft())
        return build(members)

    def shed_before(self, cutoff):
        shed = []
        kept = []
        for request in self._queue:
            if request.arrival_time < cutoff:
                shed.append(request)
            else:
                kept.append(request)
        if shed:
            self._queue = deque(kept)
        return shed
