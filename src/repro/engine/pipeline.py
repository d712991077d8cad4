"""Simulated distributed inference pipelines.

An *inference pipeline* is one data-parallel replica of the model: ``P * M``
GPUs bound to the pipeline-stage-shard positions of the current parallel
configuration, decoding one mini-batch at a time.  The pipeline tracks
token-level decoding progress analytically (using the calibrated
:class:`~repro.llm.costmodel.LatencyModel`), which is what lets the
reproduction commit progress at arbitrary decoding iterations exactly like
SpotServe's stateful inference recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

from ..llm.costmodel import LatencyModel
from ..sim.events import Event
from .batching import Batch
from .context import ContextDaemon, DeviceId
from .placement import TopologyPosition


@dataclass
class PipelineAssignment:
    """The device bound to each (stage, shard) position of one pipeline."""

    pipeline_index: int
    pipeline_degree: int
    tensor_degree: int
    devices: Dict[TopologyPosition, DeviceId] = field(default_factory=dict)

    @cached_property
    def instance_ids(self) -> Tuple[str, ...]:
        """Instances hosting this pipeline's devices (unique, in device order).

        Computed on the first read: the dataplane fills :attr:`devices`
        before it builds the pipeline, and the assignment is fixed after.
        """
        return tuple(dict.fromkeys(device[0] for device in self.devices.values()))

    @property
    def is_fully_assigned(self) -> bool:
        """True when every position has a device."""
        return len(self.devices) == self.pipeline_degree * self.tensor_degree


class InferencePipeline:
    """One data-parallel replica decoding batches with incremental decoding.

    A batch's execution latency is ``l_exe(S_out | S_in) = t_exe(S_in) +
    S_out * t_exe(1)`` (Eqs. 1-2).  The pipeline's (P, M) is fixed, so both
    terms depend only on the batch's size and prompt length: :attr:`timings`
    holds them per ``(size, input_tokens)``, filled on first use by the cost
    model, and a started batch reads its pair there instead of calling the
    cost model.
    """

    def __init__(
        self,
        assignment: PipelineAssignment,
        latency_model: LatencyModel,
        batch_size: int,
        daemons: Sequence[ContextDaemon],
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.assignment = assignment
        #: The context daemons of the pipeline's GPUs (Figure 3 runs one
        #: next to every inference engine); a completed batch clears their
        #: cache contexts.
        self.daemons = daemons
        self.latency_model = latency_model
        self.batch_size = batch_size
        self.current_batch: Optional[Batch] = None
        #: The pending completion of ``current_batch``: its ``(time, order,
        #: pipeline, batch)`` entry in the owning dataplane's heap of pending
        #: completions, set by the dataplane that started the batch.
        #: :meth:`interrupt` clears it, which leaves that entry stale.
        self.completion: Optional[tuple] = None
        #: The ``BATCH_COMPLETION`` event armed for ``completion``, if the
        #: serving system armed one; :meth:`interrupt` cancels it.
        self.completion_event: Optional[Event] = None
        #: Index in the owning dataplane's ``pipelines`` (``None`` outside
        #: that list); the dataplane's idle index holds these.
        self.position: Optional[int] = None
        #: ``(size, input_tokens) -> (decode iteration time, prefill time)``
        #: of this pipeline's (P, M); see :meth:`_timing`.
        self.timings: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self._batch_start_time: Optional[float] = None
        self._tokens_at_start: int = 0
        self._prefill_needed: bool = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pipeline_index(self) -> int:
        """Data-parallel index of this pipeline."""
        return self.assignment.pipeline_index

    @property
    def is_busy(self) -> bool:
        """True while a batch is being decoded."""
        return self.current_batch is not None

    def uses_instance(self, instance_id: str) -> bool:
        """True when any of the pipeline's GPUs lives on *instance_id*."""
        return instance_id in self.assignment.instance_ids

    # ------------------------------------------------------------------
    # Batch lifecycle
    # ------------------------------------------------------------------
    def start_batch(self, batch: Batch, time: float, resume: bool = False) -> float:
        """Begin decoding *batch* at *time*; returns the completion timestamp.

        ``resume=True`` means the batch's KV cache is resident (stateful
        recovery), so a batch with committed progress decodes only its
        remaining tokens; otherwise its cache is dropped and decoding
        restarts from the prompt, prefill included.

        Raises
        ------
        RuntimeError
            If the pipeline is already busy.
        """
        if self.current_batch is not None:
            raise RuntimeError(f"pipeline {self.pipeline_index} is already decoding a batch")
        self.current_batch = batch
        self._batch_start_time = time
        self._tokens_at_start = batch.committed_tokens if resume else 0
        self._prefill_needed = not (resume and batch.committed_tokens > 0)
        if not resume and batch.committed_tokens > 0:
            batch.drop_cache()
        for request in batch.requests:
            if request.first_start_time is None:
                request.first_start_time = time
        iteration, prefill = (
            self.timings.get((batch.size, batch.input_tokens)) or self._timing(batch)
        )
        if not self._prefill_needed:
            return time + batch.remaining_tokens * iteration
        return time + (prefill + batch.output_tokens * iteration)

    def _timing(self, batch: Batch) -> Tuple[float, float]:
        """*batch*'s ``(decode iteration time, prefill time)``, entered in :attr:`timings`."""
        assignment = self.assignment
        timing = self.timings[batch.size, batch.input_tokens] = (
            self.latency_model.decode_iteration_time(
                assignment.pipeline_degree,
                assignment.tensor_degree,
                batch.size,
                context_length=batch.input_tokens,
            ),
            self.latency_model.prefill_time(
                assignment.pipeline_degree,
                assignment.tensor_degree,
                batch.size,
                batch.input_tokens,
            ),
        )
        return timing

    def tokens_decoded_by(self, time: float) -> int:
        """Output tokens (per request) decoded between batch start and *time*."""
        if self.current_batch is None or self._batch_start_time is None:
            return 0
        batch = self.current_batch
        iteration, prefill = (
            self.timings.get((batch.size, batch.input_tokens)) or self._timing(batch)
        )
        elapsed = max(time - self._batch_start_time, 0.0)
        if self._prefill_needed:
            if elapsed <= prefill:
                return 0
            elapsed -= prefill
        if iteration <= 0:
            return batch.output_tokens - self._tokens_at_start
        decoded = int(elapsed // iteration)
        return min(decoded, batch.output_tokens - self._tokens_at_start)

    def commit_progress(self, time: float) -> int:
        """Commit every token decoded so far (token-level commit).

        Returns the number of newly committed tokens.
        """
        if self.current_batch is None:
            return 0
        decoded = self.tokens_decoded_by(time)
        already = self.current_batch.committed_tokens - self._tokens_at_start
        newly = max(decoded - already, 0)
        if newly > 0:
            self.current_batch.commit_tokens(newly)
        return newly

    def complete_batch(self, time: float) -> Batch:
        """Finish the current batch at *time* and return it.

        One walk over the members sets each one's progress to its own
        output length and its completion time to *time*.  That equals
        committing the batch's remainder on every member: the batch's
        progress is the smallest member progress ``c``, so its remainder
        ``L - c`` (``L`` the longest output) is at least every member's
        own, and committing it moves each member to
        ``min(c_r + L - c, o_r) = o_r`` and the batch to its shortest
        output.
        """
        batch = self.current_batch
        if batch is None:
            raise RuntimeError("no batch to complete")
        for request in batch.requests:
            request.committed_tokens = request.output_tokens
            request.completion_time = time
        batch.committed_tokens = batch.shortest_output
        self.current_batch = None
        self.completion = self.completion_event = None
        self._batch_start_time = None
        self._tokens_at_start = 0
        self._prefill_needed = True
        return batch

    def interrupt(self, time: float, preserve_cache: bool = True) -> Optional[Batch]:
        """Stop decoding at *time*, committing progress when the cache survives.

        Returns the interrupted batch (None when idle).  Its pending
        completion goes stale and its armed completion event, if any, is
        cancelled, so neither completes it.  With ``preserve_cache=False``
        the KV cache is lost and the batch's progress is reset (the
        request-rerouting baseline behaviour).
        """
        if self.current_batch is None:
            return None
        batch = self.current_batch
        if self.completion_event is not None:
            self.completion_event.cancel()
        self.completion = self.completion_event = None
        if preserve_cache:
            self.commit_progress(time)
        else:
            batch.drop_cache()
        self.current_batch = None
        self._batch_start_time = None
        self._tokens_at_start = 0
        self._prefill_needed = True
        return batch
