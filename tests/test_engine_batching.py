"""Tests for the request queue and batch formation."""

import pytest

from repro.engine.batching import Batch, RequestQueue
from repro.workload.request import Request


def make_requests(n, start=0.0):
    return [Request(arrival_time=start + i, output_tokens=16) for i in range(n)]


class TestBatch:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            Batch([])

    def test_progress_tracks_slowest_request(self):
        requests = make_requests(3)
        requests[0].commit_tokens(5)
        batch = Batch(requests)
        assert batch.committed_tokens == 0
        assert batch.remaining_tokens == 16

    def test_commit_tokens_applies_to_all(self):
        batch = Batch(make_requests(4))
        batch.commit_tokens(6)
        assert all(r.committed_tokens == 6 for r in batch.requests)
        assert not batch.is_complete
        batch.commit_tokens(10)
        assert batch.is_complete

    def test_drop_cache_resets_all(self):
        batch = Batch(make_requests(2))
        batch.commit_tokens(6)
        batch.drop_cache()
        assert batch.committed_tokens == 0
        assert all(not r.cache_preserved for r in batch.requests)

    def test_mark_interrupted(self):
        batch = Batch(make_requests(2))
        batch.mark_interrupted()
        assert all(r.interruptions == 1 for r in batch.requests)

    def test_unique_batch_ids(self):
        assert Batch(make_requests(1)).batch_id != Batch(make_requests(1)).batch_id


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

    def test_enqueue_front_preserves_relative_order(self):
        queue = RequestQueue(max_batch_size=4)
        tail = make_requests(2, start=100.0)
        for request in tail:
            queue.enqueue(request)
        interrupted = make_requests(2, start=0.0)
        queue.enqueue_front(interrupted)
        batch = queue.next_batch()
        assert batch.requests == interrupted + tail
