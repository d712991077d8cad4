"""The request manager and its inference engines (SpotServe Figure 3).

:class:`Dataplane` owns everything between an admitted request and a
completed one: the FIFO :class:`~repro.engine.batching.RequestQueue`, the
deployed configuration's :class:`~repro.engine.pipeline.InferencePipeline`
set, the ``BATCH_COMPLETION`` events that drive them, the interrupted
batches waiting to resume, and the stall gate that holds dispatch while a
migration runs.  The control plane tells it what to deploy, when to stop
and when to resume; it never picks a configuration itself.

Requests are never lost here: an interrupted batch either resumes with its
KV cache or is re-queued at the front (see :meth:`Dataplane.reroute`), and
:meth:`Dataplane.unfinished` counts every request the dataplane holds.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from ..engine.batching import Batch, RequestQueue
from ..engine.context import DeviceId, MetaContextManager
from ..engine.pipeline import InferencePipeline, PipelineAssignment
from ..engine.placement import TopologyPosition
from ..llm.costmodel import DEFAULT_INPUT_LENGTH, LatencyModel
from ..sim.engine import Simulator
from ..sim.events import Event, EventType
from .config import ParallelConfig
from .stats import ServingStats


class Dataplane:
    """Queue, pipelines and batch dispatch of one serving system."""

    def __init__(
        self,
        simulator: Simulator,
        stats: ServingStats,
        meta_context: MetaContextManager,
        latency_model: LatencyModel,
    ) -> None:
        self.simulator = simulator
        self.stats = stats
        self.meta_context = meta_context
        self.latency_model = latency_model
        self.queue = RequestQueue(max_batch_size=8)
        #: The deployed configuration (``None`` before the first deployment
        #: and after a halt; kept through a migration's stall).
        self.config: Optional[ParallelConfig] = None
        self.pipelines: List[InferencePipeline] = []
        #: Interrupted batches waiting for a pipeline to resume on.
        self.resume_batches: Deque[Batch] = deque()
        #: Dispatch is held until this instant while a migration runs.
        self.stalled_until = 0.0
        #: Instances whose inference engine has launched; a placement on any
        #: other instance pays the engine launch time.
        self.launched: set = set()
        self._completion_events: Dict[int, Event] = {}

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(
        self, config: ParallelConfig, placement: Dict[DeviceId, TopologyPosition]
    ) -> None:
        """Install *config*'s model contexts on *placement* and build its pipelines."""
        self.pipelines = self._build(config, placement, range(config.data_degree))
        self.queue.max_batch_size = config.batch_size
        self.config = config

    def add_pipeline(
        self, shape: ParallelConfig, index: int, devices: Sequence[DeviceId]
    ) -> None:
        """Bring up one more pipeline of *shape*, as data index *index*, on *devices*."""
        positions = (
            TopologyPosition(index, p, m)
            for p in range(shape.pipeline_degree)
            for m in range(shape.tensor_degree)
        )
        self.pipelines.extend(self._build(shape, dict(zip(devices, positions)), (index,)))

    def _build(
        self,
        config: ParallelConfig,
        placement: Dict[DeviceId, TopologyPosition],
        indices: Iterable[int],
    ) -> List[InferencePipeline]:
        assignments = {
            index: PipelineAssignment(
                pipeline_index=index,
                pipeline_degree=config.pipeline_degree,
                tensor_degree=config.tensor_degree,
            )
            for index in indices
        }
        for device_id, position in placement.items():
            self.meta_context.daemon(device_id).install_model_context(
                config.pipeline_degree, config.tensor_degree, position
            )
            assignment = assignments.get(position.data_index)
            if assignment is not None:
                assignment.devices[position] = device_id
        return [
            InferencePipeline(assignment, self.latency_model, config.batch_size)
            for assignment in assignments.values()
        ]

    def instance_ids(self) -> set:
        """Instances hosting a live pipeline (must not be released)."""
        return {
            instance_id
            for pipeline in self.pipelines
            for instance_id in pipeline.assignment.instance_ids
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self) -> None:
        """Start a batch on every idle pipeline while work is waiting."""
        if not self.pipelines or self.simulator.now < self.stalled_until:
            return
        for pipeline in self.pipelines:
            if pipeline.is_busy:
                continue
            batch, resume = self._next_batch()
            if batch is None:
                break
            finish_time = pipeline.start_batch(batch, self.simulator.now, resume=resume)
            self._completion_events[id(pipeline)] = self.simulator.schedule_at(
                finish_time,
                EventType.BATCH_COMPLETION,
                payload=(pipeline, batch),
                callback=self._on_batch_completion,
            )

    def _next_batch(self) -> Tuple[Optional[Batch], bool]:
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

    def _on_batch_completion(self, event: Event) -> None:
        pipeline, batch = event.payload  # type: InferencePipeline, Batch
        if pipeline.current_batch is not batch:
            return  # The batch was interrupted before completing.
        completed = pipeline.complete_batch(event.time)
        self._completion_events.pop(id(pipeline), None)
        self.stats.tokens_generated += completed.output_tokens * completed.size
        for request in completed.requests:
            self.stats.record_completion(request)
        for device_id in pipeline.assignment.device_ids:
            self.meta_context.daemon(device_id).clear_cache_context()
        self.dispatch()

    # ------------------------------------------------------------------
    # Interruption
    # ------------------------------------------------------------------
    def reroute(self, batch: Batch) -> None:
        """Drop an interrupted batch's cache and put its requests back in line.

        The requests lose their decoding progress but are never lost -- this
        is the re-queue half of the request-conservation invariant.
        """
        batch.drop_cache()
        self.queue.enqueue_front(batch.requests)
        self.stats.rerouted_batches += 1
        self.stats.requests_rerouted += batch.size

    def _interrupt(self, pipeline: InferencePipeline, preserve_cache: bool) -> Optional[Batch]:
        """Cancel *pipeline*'s completion event and interrupt its batch."""
        event = self._completion_events.pop(id(pipeline), None)
        if event is not None:
            event.cancel()
        return pipeline.interrupt(self.simulator.now, preserve_cache=preserve_cache)

    def teardown(self, instance_ids: set) -> List[InferencePipeline]:
        """Interrupt and remove every pipeline that uses one of *instance_ids*.

        In-flight batches are re-queued without their cache (the instances
        are gone, so the cache is unrecoverable).  Returns the pipelines
        that were torn down.
        """
        if not instance_ids:
            return []
        affected = [
            pipeline
            for pipeline in self.pipelines
            if any(pipeline.uses_instance(i) for i in instance_ids)
        ]
        if not affected:
            return []
        for pipeline in affected:
            batch = self._interrupt(pipeline, preserve_cache=False)
            if batch is not None:
                self.reroute(batch)
        torn_down = set(map(id, affected))
        self.pipelines = [p for p in self.pipelines if id(p) not in torn_down]
        return affected

    def interrupt_all(self, preserve_cache: bool) -> List[Batch]:
        """Interrupt every busy pipeline, returning the interrupted batches."""
        interrupted: List[Batch] = []
        for pipeline in self.pipelines:
            if not pipeline.is_busy:
                continue  # An idle pipeline holds no completion event.
            batch = self._interrupt(pipeline, preserve_cache)
            self.stats.interrupted_batches += 1
            if preserve_cache and batch.committed_tokens > 0:
                self._store_cache_context(pipeline, batch)
                batch.cache_preserved = True
            else:
                batch.cache_preserved = False
            interrupted.append(batch)
        return interrupted

    def _store_cache_context(self, pipeline: InferencePipeline, batch: Batch) -> None:
        """Record the interrupted batch's KV cache in the pipeline's daemons."""
        config = self.config
        if config is None:
            return
        for position, device_id in pipeline.assignment.devices.items():
            self.meta_context.daemon(device_id).install_cache_context(
                config.pipeline_degree,
                config.tensor_degree,
                position,
                batch.size,
                DEFAULT_INPUT_LENGTH + batch.committed_tokens,
                batch.batch_id,
            )

    def suspend(self, kept: Sequence[Batch], discarded: Sequence[Batch], until: float) -> None:
        """Drop every pipeline for a migration that stalls serving until *until*.

        *kept* batches resume on the new deployment; *discarded* ones are
        rerouted.
        """
        self.resume_batches.extend(kept)
        for batch in discarded:
            self.reroute(batch)
        self.pipelines = []
        self.stalled_until = until

    def halt(self, preserve_cache: bool) -> None:
        """Stop serving entirely (no feasible configuration remains)."""
        for batch in self.interrupt_all(preserve_cache):
            if preserve_cache and batch.cache_preserved:
                self.resume_batches.append(batch)
            else:
                batch.drop_cache()
                self.queue.enqueue_front(batch.requests)
                # Not counted in ``rerouted_batches`` (pre-outage golden
                # digests pin that counter's historical semantics), but the
                # requests did lose their progress.
                self.stats.requests_rerouted += batch.size
        self.pipelines = []
        self.config = None

    def unfinished(self) -> int:
        """Requests queued, in flight, or interrupted and waiting to resume."""
        inflight = sum(
            pipeline.current_batch.size
            for pipeline in self.pipelines
            if pipeline.current_batch is not None
        )
        resumable = sum(batch.size for batch in self.resume_batches)
        return self.queue.pending + inflight + resumable
