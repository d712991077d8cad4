"""Request queue and batch formation.

SpotServe's request manager receives input requests, partitions them into
mini-batches of at most ``B`` requests (the batch-size component of the
parallel configuration) and dispatches them to idle inference pipelines.
This module provides the FIFO queue and the :class:`Batch` object used by
every serving system in the reproduction (SpotServe and baselines share it
so comparisons stay apples-to-apples).  A streamed arrival waits in the
queue as its arrival time, and becomes a
:class:`~repro.workload.request.Request` only when a batch takes it.

A batch's shape (its size and token lengths) is fixed when it is built,
and its progress is a field that committing tokens and dropping the cache
update, so the per-event dispatch and completion paths read plain
attributes instead of walking the member requests.
:meth:`RequestQueue.next_batch` builds a batch in one walk: it pops the
members, builds each waiting time's request without a class call and
computes the shape on the way.
"""

from __future__ import annotations

import itertools
from collections import deque
from math import inf
from typing import Deque, Iterable, List, Optional, Union

from ..workload.arrival import check_token_count
from ..workload.request import DEFAULT_INPUT_TOKENS, DEFAULT_OUTPUT_TOKENS, Request, request_ids

_batch_ids = itertools.count()

#: A waiting entry of :class:`RequestQueue`: a request, or a streamed
#: arrival's bare arrival time.
QueueEntry = Union[Request, float]


class Batch:
    """A mini-batch of requests decoded together by one pipeline.

    The batch's shape is fixed when it is built: nothing changes its
    members or their token counts afterwards, so ``size``, ``input_tokens``,
    ``output_tokens`` and ``shortest_output`` are set once, by whoever
    builds the batch (:meth:`RequestQueue.next_batch`, which derives them
    while it takes the members; ``tests/oracles/batching.py`` holds the
    member walks they equal).  Its progress, ``committed_tokens``, is a
    field that :meth:`commit_tokens` and :meth:`drop_cache` keep equal to
    the smallest progress among the members, even when they start out of
    step or differ in length: committing *k* tokens moves every member to
    ``min(c + k, o)``, and the minimum of those is ``min(min(c) + k,
    min(o))``.
    """

    __slots__ = (
        "requests",
        "batch_id",
        "size",
        "input_tokens",
        "output_tokens",
        "committed_tokens",
        "cache_preserved",
        "shortest_output",
    )

    def __init__(
        self,
        requests: List[Request],
        size: int,
        input_tokens: int,
        output_tokens: int,
        shortest_output: int,
        committed_tokens: int,
    ) -> None:
        self.requests = requests
        self.batch_id = next(_batch_ids)
        #: Number of requests in the batch.
        self.size = size
        #: Prompt length (the paper uses a uniform S_in per experiment).
        self.input_tokens = input_tokens
        #: Output length to generate for the batch (its longest member).
        self.output_tokens = output_tokens
        #: Output length of the batch's shortest member: the progress a
        #: completed batch ends at.
        self.shortest_output = shortest_output
        #: Decoding progress already committed (minimum across requests).
        self.committed_tokens = committed_tokens
        #: Whether the KV cache survived the batch's most recent interruption.
        self.cache_preserved = True

    @property
    def remaining_tokens(self) -> int:
        """Output tokens still to generate for the slowest request."""
        return max(request.remaining_tokens for request in self.requests)

    def commit_tokens(self, count: int) -> None:
        """Commit *count* decoded tokens on every request of the batch."""
        for request in self.requests:
            request.commit_tokens(count)
        self.committed_tokens = min(self.committed_tokens + count, self.shortest_output)

    def drop_cache(self) -> None:
        """The batch's KV cache was lost; decoding restarts from the prompt."""
        for request in self.requests:
            request.drop_cache()
        self.committed_tokens = 0


class RequestQueue:
    """FIFO queue with batch formation.

    An entry is a :class:`Request` or a bare arrival time.  A streamed
    arrival the serving system takes in without an event (see
    ``ServingSystemBase._take_in``) waits as its arrival time, and
    :meth:`next_batch` builds its ``Request`` with the stream's token sizes
    only when a batch takes it: on a deep queue that sheds most of what it
    holds, most arrivals never become objects, and a float in a deque is
    not tracked by the cyclic garbage collector.  Pre-scheduled requests,
    streamed arrivals that fire as events and re-queued requests wait as
    themselves.

    ``Dataplane.finish`` tests the deque ``_queue`` for emptiness
    directly, so a completion with nothing waiting makes no call here, and
    ``Dataplane.start_batches`` does too before each ``next_batch``.
    """

    def __init__(self, max_batch_size: int = 8) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.max_batch_size = max_batch_size
        self._queue: Deque[QueueEntry] = deque()
        #: Token sizes a waiting arrival time's ``Request`` is built with:
        #: the current stream's (see :meth:`set_token_sizes`).
        self.input_tokens = DEFAULT_INPUT_TOKENS
        self.output_tokens = DEFAULT_OUTPUT_TOKENS

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def pending(self) -> int:
        """Requests waiting to be dispatched."""
        return len(self._queue)

    def enqueue(self, entry: QueueEntry) -> None:
        """Add a newly arrived request, or a bare arrival time, to the back."""
        self._queue.append(entry)

    def set_token_sizes(self, input_tokens: int, output_tokens: int) -> None:
        """Give the arrival times enqueued from now on these token sizes.

        Both sizes get ``check_token_count``'s check here, once per stream,
        since :meth:`next_batch` builds requests with them unchecked; a bad
        pair raises before the queue or its sizes change.  Times already
        waiting came from an earlier stream, so when the sizes change each
        of them is first built into its ``Request`` with the old sizes:
        once per stream switch, never per arrival.
        """
        input_tokens = check_token_count("input_tokens", input_tokens)
        output_tokens = check_token_count("output_tokens", output_tokens)
        old_input, old_output = self.input_tokens, self.output_tokens
        if (input_tokens, output_tokens) == (old_input, old_output):
            return
        self._queue = deque(
            entry if entry.__class__ is Request else Request(entry, old_input, old_output)
            for entry in self._queue
        )
        self.input_tokens = input_tokens
        self.output_tokens = output_tokens

    def enqueue_front(self, requests: Iterable[Request]) -> None:
        """Put interrupted requests back at the *front* of the queue.

        Interrupted requests have been waiting the longest, so serving them
        first minimises their end-to-end latency.
        """
        for request in reversed(list(requests)):
            self._queue.appendleft(request)

    def next_batch(self, max_batch_size: Optional[int] = None) -> Optional[Batch]:
        """Pop up to ``max_batch_size`` requests as a batch (None when empty).

        One walk pops the members and computes the batch's shape on the
        way.  A waiting arrival time becomes its ``Request`` here, without
        the class call: its slots are stored directly, with the stream's
        token sizes (checked once by :meth:`set_token_sizes`) and the
        arrival-time check ``Request`` makes.  A batch of bare times has
        the stream's sizes and no progress; a waiting request adds its own
        sizes and progress.  No member has a ``first_start_time`` until
        ``InferencePipeline.start_batch``.
        """
        limit = max_batch_size if max_batch_size is not None else self.max_batch_size
        if limit <= 0:
            raise ValueError("max_batch_size must be positive")
        queue = self._queue
        if not queue:
            return None
        input_tokens = self.input_tokens
        output_tokens = self.output_tokens
        members: List[Request] = []
        # The shape of the members that waited as requests, and their count.
        prompt = longest = requeued = 0
        shortest = committed = inf
        while queue and len(members) < limit:
            entry = queue.popleft()
            if entry.__class__ is Request:
                requeued += 1
                prompt = max(prompt, entry.input_tokens)
                longest = max(longest, entry.output_tokens)
                shortest = min(shortest, entry.output_tokens)
                committed = min(committed, entry.committed_tokens)
                members.append(entry)
                continue
            if not 0 <= entry < inf:
                raise ValueError(f"arrival_time must be finite and non-negative, got {entry}")
            request = object.__new__(Request)
            request.arrival_time = entry
            request.input_tokens = input_tokens
            request.output_tokens = output_tokens
            request.request_id = next(request_ids)
            request.committed_tokens = 0
            request.first_start_time = None
            request.completion_time = None
            request.recomputed_tokens = 0
            members.append(request)
        size = len(members)
        if not requeued:
            return Batch(members, size, input_tokens, output_tokens, output_tokens, 0)
        if requeued < size:  # Bare times joined the waiting requests.
            prompt = max(prompt, input_tokens)
            longest = max(longest, output_tokens)
            shortest = min(shortest, output_tokens)
            committed = 0
        return Batch(members, size, prompt, longest, shortest, committed)

    def shed_before(self, cutoff: float) -> List[QueueEntry]:
        """Remove and return every queued entry that arrived before *cutoff*.

        One pass over the queue, comparing arrival times in place; it is
        exact in any queue order (``enqueue_front`` can put older requests
        behind newer ones, and a streamed time up to 1 ns behind the
        previous arrival keeps its own value).  The relative order of the
        surviving entries is preserved.  Used by the overload-control
        shedding policies (:mod:`repro.core.admission`); the caller is
        responsible for accounting the removed entries (the serving system
        counts them in ``ServingStats.requests_shed`` so the
        request-conservation invariant keeps holding).  A shed arrival
        time is returned as itself: it never becomes a ``Request``.
        """
        shed: List[QueueEntry] = []
        kept: List[QueueEntry] = []
        for entry in self._queue:
            if (entry.arrival_time if entry.__class__ is Request else entry) < cutoff:
                shed.append(entry)
            else:
                kept.append(entry)
        if shed:
            self._queue = deque(kept)
        return shed
