"""Scalar reference for the dataplane's batch dispatch.

:class:`ReferenceDataplane` finds idle pipelines the straightforward way:
on every arrival and every completion it reads ``is_busy`` on each
pipeline, in list order, and starts a batch on each idle one until the
queue runs dry.  The production :class:`~repro.core.dataplane.Dataplane`
claims idle pipelines from an index, lowest position first, and must start
the same batches on the same pipelines at the same instants.  Both enter
each started batch's completion in ``completions`` the same way, and an
interrupt leaves that entry stale in both.

The serving system asks the dataplane's ``idle`` whether any pipeline is
idle before it dispatches an arrival; here that question is answered by
the same scan.
"""

from heapq import heappush

from repro.core.dataplane import Dataplane


class ReferenceDataplane(Dataplane):
    """Dispatch as a scan over every pipeline; keeps no idle index."""

    @property
    def idle(self):
        """Idle pipelines' positions, read off every pipeline's ``is_busy``."""
        return [i for i, pipeline in enumerate(self.pipelines) if not pipeline.is_busy]

    @idle.setter
    def idle(self, _positions):
        """The scan reads idleness off the pipelines: nothing to store."""

    def start_batches(self) -> None:
        if not self.pipelines or self.simulator.now < self.stalled_until:
            return
        for pipeline in self.pipelines:
            if pipeline.is_busy:
                continue
            batch, resume = self._next_batch()
            if batch is None:
                break
            finish_time = pipeline.start_batch(batch, self.simulator.now, resume=resume)
            pipeline.completion = (finish_time, self.simulator.reserve_order(), pipeline, batch)
            heappush(self.completions, pipeline.completion)

    def _next_batch(self):
        if self.resume_batches:
            batch = self.resume_batches.popleft()
            max_size = self.config.batch_size if self.config else batch.size
            if batch.size > max_size:
                # The new configuration cannot hold the whole batch: drop its
                # cache and requeue the member requests.
                self.reroute(batch)
                return self._next_batch()
            return batch, batch.cache_preserved and batch.committed_tokens > 0
        return self.queue.next_batch(self.config.batch_size if self.config else None), False

