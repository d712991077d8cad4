"""The request manager and its inference engines (SpotServe Figure 3).

:class:`Dataplane` owns everything between an admitted request and a
completed one: the FIFO :class:`~repro.engine.batching.RequestQueue`, the
deployed configuration's :class:`~repro.engine.pipeline.InferencePipeline`
set, the pending completions of their batches, the interrupted batches
waiting to resume, and the stall gate that holds dispatch while a
migration runs.  The control plane tells it what to deploy, when to stop
and when to resume; it never picks a configuration itself.

A started batch schedules no event.  Its completion joins
:attr:`Dataplane.completions`, a min-heap of ``(time, order, pipeline,
batch)`` entries, with the tie-break slot
:meth:`~repro.sim.engine.Simulator.reserve_order` gives the batch at start.
The owning serving system completes them in that order
(``ServingSystemBase._take_in``) and arms events only for those it cannot
reach.  An interrupt leaves its entry stale; the heap drops it at the top.
Each control-plane dispatch and interrupt ends with the owner's
:attr:`Dataplane.arm` hook, so a completion it adds or strands gets an
event in time.

Dispatch claims idle pipelines from an index, so a saturated fleet reads
no pipeline state per arrival: :attr:`Dataplane.idle`, a min-heap of the
idle pipelines' positions in :attr:`Dataplane.pipelines`, claimed lowest
position first (the order a scan of the list visits them in) and released
when a batch completes or is interrupted.  Each pipeline holds its own
position and its pending completion.  Only :class:`Dataplane` methods
replace ``pipelines``, and each replacement renumbers the positions and
rebuilds the index.

Each pipeline holds the context daemons of its GPUs, resolved once when
the dataplane builds it, and a completed batch clears their cache contexts
through those references; :meth:`Dataplane.finish` explains why that
equals a meta-context lookup per device.

Requests are never lost here: an interrupted batch either resumes with its
KV cache or is re-queued at the front (see :meth:`Dataplane.reroute`), and
:meth:`Dataplane.unfinished` counts every request the dataplane holds.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence

from ..engine.batching import Batch, RequestQueue
from ..engine.context import DeviceId, MetaContextManager
from ..engine.pipeline import InferencePipeline, PipelineAssignment
from ..engine.placement import TopologyPosition
from ..llm.costmodel import LatencyModel
from ..sim.engine import Simulator
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
        arm: Callable[[], None],
    ) -> None:
        self.simulator = simulator
        self.stats = stats
        self.meta_context = meta_context
        self.latency_model = latency_model
        #: The owner's hook that arms an event for its earliest pending
        #: dataplane occurrence; called after each control-plane dispatch
        #: and interrupt (see the module docstring).
        self.arm = arm
        #: Pending completions, one ``(time, order, pipeline, batch)`` entry
        #: per started batch (a min-heap; see the module docstring).
        self.completions: List[tuple] = []
        self.queue = RequestQueue(max_batch_size=8)
        #: The deployed configuration (``None`` before the first deployment
        #: and after a halt; kept through a migration's stall).
        self.config: Optional[ParallelConfig] = None
        self.pipelines: List[InferencePipeline] = []
        #: Idle pipelines' positions in ``pipelines`` (a min-heap; empty
        #: when every pipeline is busy); see :meth:`_install`.
        self.idle: List[int] = []
        #: Interrupted batches waiting for a pipeline to resume on.
        self.resume_batches: Deque[Batch] = deque()
        #: Dispatch is held until this instant while a migration runs.
        self.stalled_until = 0.0
        #: Instances whose inference engine has launched; a placement on any
        #: other instance pays the engine launch time.
        self.launched: set = set()

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(
        self, config: ParallelConfig, placement: Dict[DeviceId, TopologyPosition]
    ) -> None:
        """Install *config*'s model contexts on *placement* and build its pipelines."""
        self._install(self._build(config, placement, range(config.data_degree)))
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
        self._install(
            self.pipelines + self._build(shape, dict(zip(devices, positions)), (index,))
        )

    def _install(self, pipelines: List[InferencePipeline]) -> None:
        """Replace the pipeline list, renumber it and rebuild the idle index.

        A pipeline dropped from the list loses its position, so a batch
        still completing on it returns nothing to the index.
        """
        for pipeline in self.pipelines:
            pipeline.position = None
        for position, pipeline in enumerate(pipelines):
            pipeline.position = position
        self.pipelines = pipelines
        # Ascending positions already form a valid heap.
        self.idle = [i for i, p in enumerate(pipelines) if p.current_batch is None]

    def _build(
        self,
        config: ParallelConfig,
        placement: Dict[DeviceId, TopologyPosition],
        indices: Iterable[int],
    ) -> List[InferencePipeline]:
        """Install *placement*'s model contexts and build the pipelines of *indices*.

        Each pipeline holds its devices' context daemons, resolved here once
        (see :meth:`finish`).
        """
        daemon = self.meta_context.daemon
        assignments = {
            index: PipelineAssignment(
                pipeline_index=index,
                pipeline_degree=config.pipeline_degree,
                tensor_degree=config.tensor_degree,
            )
            for index in indices
        }
        for device_id, position in placement.items():
            daemon(device_id).install_model_context(
                config.pipeline_degree, config.tensor_degree, position
            )
            assignment = assignments.get(position.data_index)
            if assignment is not None:
                assignment.devices[position] = device_id
        return [
            InferencePipeline(
                assignment,
                self.latency_model,
                config.batch_size,
                tuple(daemon(device_id) for device_id in assignment.devices.values()),
            )
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
        """The control plane's dispatch: :meth:`start_batches`, then :attr:`arm`."""
        self.start_batches()
        self.arm()

    def start_batches(self) -> None:
        """Start a batch on every idle pipeline while work is waiting.

        Idle pipelines are claimed lowest position first, so batches land
        where a scan of ``pipelines`` in list order would put them.
        Interrupted batches resume before queued requests start; one too
        large for the deployed batch size is rerouted instead.  The loop
        stops as soon as no interrupted batch and no queued request waits,
        so an idle pipeline with nothing to take costs no call.  Each
        started batch's completion joins :attr:`completions` with the next
        insertion-order slot of the simulator.
        """
        idle = self.idle
        simulator = self.simulator
        now = simulator.now
        if not idle or now < self.stalled_until:
            return
        queue = self.queue
        resume_batches = self.resume_batches
        config = self.config
        completions = self.completions
        while idle:
            if resume_batches:
                batch = resume_batches.popleft()
                if config is not None and batch.size > config.batch_size:
                    # The new configuration cannot hold the whole batch: drop
                    # its cache and requeue the member requests.
                    self.reroute(batch)
                    continue
                resume = batch.cache_preserved and batch.committed_tokens > 0
            elif queue._queue:
                batch = queue.next_batch(None if config is None else config.batch_size)
                resume = False
            else:
                return
            pipeline = self.pipelines[heappop(idle)]
            entry = pipeline.completion = (
                pipeline.start_batch(batch, now, resume),
                simulator.reserve_order(),
                pipeline,
                batch,
            )
            heappush(completions, entry)

    def finish(self, pipeline: InferencePipeline, time: float) -> None:
        """Complete *pipeline*'s batch at *time*, free it and clear its KV cache.

        The serving system calls this for a live entry of
        :attr:`completions`, with ``now`` at *time*.

        The cache contexts are cleared through the daemons the pipeline has
        held since :meth:`_build`, not through
        :meth:`~repro.engine.context.MetaContextManager.daemon`.  The two
        differ only once ``drop_instance`` has removed one of the devices,
        and that happens only to instances no live pipeline uses:

        * ``ServingSystemBase._on_preemption_final`` drops the instance
          after ``handle_preemption_final``, and every override of that
          (SpotServe, request rerouting, reparallelization) tears down the
          instance's pipelines first;
        * a zone outage's ``down`` phase tears down before it drops;
        * the tenant rebalance skips instances in :meth:`instance_ids`.

        A torn-down pipeline's completion never gets here: its entry went
        stale and its event, if armed, was cancelled.  Even the empty
        daemon a lookup would re-create is skipped by the migration
        planner's walk of the meta-context.

        It calls :meth:`start_batches` only when a queued request or an
        interrupted batch waits, since otherwise that call does nothing.
        """
        batch = pipeline.complete_batch(time)
        position = pipeline.position
        if position is not None:  # Not when the list was replaced under it.
            heappush(self.idle, position)
        stats = self.stats
        tokens = 0
        for request in batch.requests:
            tokens += request.output_tokens
            stats.record_completion(request)
        stats.tokens_generated += tokens
        for daemon in pipeline.daemons:
            daemon.cache_context = None
        if self.queue._queue or self.resume_batches:
            self.start_batches()

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
        now = self.simulator.now
        for pipeline in affected:
            batch = pipeline.interrupt(now, preserve_cache=False)
            if batch is not None:
                self.reroute(batch)
        torn_down = set(map(id, affected))
        self._install([p for p in self.pipelines if id(p) not in torn_down])
        self.arm()
        return affected

    def interrupt_all(self, preserve_cache: bool) -> List[Batch]:
        """Interrupt every busy pipeline, returning the interrupted batches."""
        interrupted: List[Batch] = []
        now = self.simulator.now
        for pipeline in self.pipelines:
            if not pipeline.is_busy:
                continue  # An idle pipeline holds no pending completion.
            batch = pipeline.interrupt(now, preserve_cache=preserve_cache)
            heappush(self.idle, pipeline.position)
            self.stats.interrupted_batches += 1
            if preserve_cache and batch.committed_tokens > 0:
                self._store_cache_context(pipeline, batch)
                batch.cache_preserved = True
            else:
                batch.cache_preserved = False
            interrupted.append(batch)
        self.arm()
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
                batch.input_tokens + batch.committed_tokens,
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
        self._install([])
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
        self._install([])
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
