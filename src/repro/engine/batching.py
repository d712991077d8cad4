"""Request queue and batch formation.

SpotServe's request manager receives input requests, partitions them into
mini-batches of at most ``B`` requests (the batch-size component of the
parallel configuration) and dispatches them to idle inference pipelines.
This module provides the FIFO queue and the :class:`Batch` object used by
every serving system in the reproduction (SpotServe and baselines share it
so comparisons stay apples-to-apples).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, List, Optional

from ..workload.request import Request

_batch_ids = itertools.count()


@dataclass
class Batch:
    """A mini-batch of requests decoded together by one pipeline."""

    requests: List[Request]
    batch_id: int = field(default_factory=lambda: next(_batch_ids))

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a batch must contain at least one request")

    @property
    def size(self) -> int:
        """Number of requests in the batch."""
        return len(self.requests)

    @property
    def input_tokens(self) -> int:
        """Prompt length (the paper uses a uniform S_in per experiment)."""
        return max(request.input_tokens for request in self.requests)

    @property
    def output_tokens(self) -> int:
        """Output length to generate for the batch."""
        return max(request.output_tokens for request in self.requests)

    @property
    def committed_tokens(self) -> int:
        """Decoding progress already committed (minimum across requests)."""
        return min(request.committed_tokens for request in self.requests)

    @property
    def remaining_tokens(self) -> int:
        """Output tokens still to generate for the slowest request."""
        return max(request.remaining_tokens for request in self.requests)

    @property
    def is_complete(self) -> bool:
        """True when every request in the batch finished decoding."""
        return all(request.is_complete for request in self.requests)

    def commit_tokens(self, count: int) -> None:
        """Commit *count* decoded tokens on every request of the batch."""
        for request in self.requests:
            request.commit_tokens(count)

    def drop_cache(self) -> None:
        """The batch's KV cache was lost; decoding restarts from the prompt."""
        for request in self.requests:
            request.drop_cache()

    def mark_interrupted(self) -> None:
        """Record an interruption on every member request."""
        for request in self.requests:
            request.mark_interrupted()


class RequestQueue:
    """FIFO queue with batch formation."""

    def __init__(self, max_batch_size: int = 8) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.max_batch_size = max_batch_size
        self._queue: Deque[Request] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def pending(self) -> int:
        """Requests waiting to be dispatched."""
        return len(self._queue)

    def enqueue(self, request: Request) -> None:
        """Add a newly arrived request to the back of the queue."""
        self._queue.append(request)

    def enqueue_front(self, requests: Iterable[Request]) -> None:
        """Put interrupted requests back at the *front* of the queue.

        Interrupted requests have been waiting the longest, so serving them
        first minimises their end-to-end latency.
        """
        for request in reversed(list(requests)):
            self._queue.appendleft(request)

    def next_batch(self, max_batch_size: Optional[int] = None) -> Optional[Batch]:
        """Pop up to ``max_batch_size`` requests as a batch (None when empty)."""
        limit = max_batch_size if max_batch_size is not None else self.max_batch_size
        if limit <= 0:
            raise ValueError("max_batch_size must be positive")
        if not self._queue:
            return None
        members: List[Request] = []
        while self._queue and len(members) < limit:
            members.append(self._queue.popleft())
        return Batch(members)

    def shed(self, predicate) -> List[Request]:
        """Remove and return every queued request matching *predicate*.

        The relative order of the surviving requests is preserved.  Used by
        the overload-control shedding policies (:mod:`repro.core.admission`);
        the caller is responsible for accounting the removed requests (the
        serving system counts them in ``ServingStats.requests_shed`` so the
        request-conservation invariant keeps holding).
        """
        shed: List[Request] = []
        if not self._queue:
            return shed
        kept: List[Request] = []
        for request in self._queue:
            (shed if predicate(request) else kept).append(request)
        if shed:
            self._queue = deque(kept)
        return shed
