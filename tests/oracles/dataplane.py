"""Scalar reference for the dataplane's batch dispatch.

:class:`ReferenceDataplane` finds idle pipelines the straightforward way:
on every arrival and every completion it reads ``is_busy`` on each
pipeline, in list order, and starts a batch on each idle one until the
queue runs dry.  The production :class:`~repro.core.dataplane.Dataplane`
claims idle pipelines from an index, lowest position first, and must start
the same batches on the same pipelines at the same instants.
"""

from repro.core.dataplane import Dataplane


class ReferenceDataplane(Dataplane):
    """Dispatch as a scan over every pipeline; keeps no idle index."""

    def dispatch(self) -> None:
        if not self.pipelines or self.simulator.now < self.stalled_until:
            return
        for pipeline in self.pipelines:
            if pipeline.is_busy:
                continue
            batch, resume = self._next_batch()
            if batch is None:
                break
            self._start(pipeline, batch, resume)

    def _release(self, pipeline) -> None:
        """The scan reads idleness off the pipelines: nothing to release."""
