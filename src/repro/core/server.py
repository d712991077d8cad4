"""Serving systems: the shared event-driven skeleton and SpotServe itself.

:class:`ServingSystemBase` wires one serving system to the discrete-event
simulator and the simulated cloud provider.  It owns the request arrivals,
admission, the adaptation round and the instance-event bookkeeping, and
composes three pieces that mirror SpotServe's Figure 3:

* :class:`~repro.core.dataplane.Dataplane` -- the request manager and the
  inference engines (queue, pipelines, batch dispatch, interruption);
* :class:`~repro.core.acquisition.FleetAcquirer` -- the instance-manager
  side (autoscaling, Algorithm 1's grow/release, retries, the launch
  watchdog);
* :class:`~repro.core.reconfiguration.TransitionPlanner` -- the
  meta-context manager side (device mapping, migration planning and the
  JIT interruption arranger), used by :class:`SpotServeSystem`.

:class:`SpotServeSystem` implements the paper's system on top of them: the
parallelization controller (Algorithm 1), the KM device mapper, the
progressive/memory-optimised migration planner (Algorithm 2) and stateful
inference recovery.  The baselines in :mod:`repro.baselines` subclass the
same base so that every system sees the identical workload, trace and
inference engine.

Event addressing: the four event types a system schedules for itself
(``REQUEST_ARRIVAL``, ``BATCH_COMPLETION``, ``RECONFIGURATION``,
``MIGRATION_COMPLETE``) carry their handler as the event callback.
``WORKLOAD_CHECK`` and the cloud events are broadcast to every system on
the simulator and filtered by ownership.

Invariants maintained here (and pinned by the regression suites):

* **Request conservation** -- at any simulation instant ::

      submitted == completed + unfinished + dropped + rejected + shed

  where ``unfinished`` is :meth:`ServingSystemBase.unfinished_request_count`
  (queue backlog + in-flight + resumable + not-yet-arrived) and the last
  three are :class:`~repro.core.stats.ServingStats` counters.  No request
  is ever silently lost; rejection and shedding are explicit, accounted
  overload-control actions (:mod:`repro.core.admission`).
* **Digest pinning** -- with autoscaling, fault injection and admission
  all disabled, ``ServingStats.summary_text()`` on the golden scenarios
  hashes to the sha256 values pinned in
  ``tests/test_streaming_equivalence.py``; new subsystems must keep those
  byte-identical (their counters live in ``extended_summary_text()``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..cloud.instance import Instance
from ..cloud.manager import InstanceManager
from ..cloud.provider import CloudProvider
from ..engine.context import MetaContextManager
from ..llm.costmodel import LatencyModel
from ..llm.memory import DEFAULT_MIGRATION_BUFFER_BYTES, MemoryModel
from ..llm.profiler import OfflineProfiler
from ..llm.spec import ModelSpec
from ..perf import PhaseTimers
from ..sim.engine import Simulator
from ..sim.events import Event, EventType
from ..sim.network import NetworkModel, OffloadTierSpec
from ..workload.arrival import ArrivalProcess
from ..workload.request import Request
from .acquisition import MAX_ON_DEMAND_EXTRA, FleetAcquirer
from .admission import AdmissionPolicy, AdmissionSignal, make_admission_policy
from .autoscaler import Autoscaler, make_autoscaler
from .config import ConfigurationSpace, ParallelConfig
from .controller import ConfigEstimate, OptimizerDecision, ParallelizationController
from .dataplane import Dataplane
from .device_mapper import DeviceMapper
from .interruption import InterruptionArranger
from .migration import MigrationPlanner
from .reconfiguration import Transition, TransitionPlanner, default_placement
from .stats import ReconfigurationRecord, ServingStats


@dataclass
class SpotServeOptions:
    """Feature switches and policy choices of the SpotServe system.

    The boolean switches correspond one-to-one to the components removed in
    the paper's ablation study (Figure 9).
    """

    #: Dynamically re-optimise the parallel configuration (Algorithm 1).
    adaptive_controller: bool = True
    #: Use Kuhn-Munkres optimal matching in the device mapper (vs. arbitrary).
    optimal_device_mapping: bool = True
    #: Use the hierarchical (intra-/inter-instance) two-step matching.
    hierarchical_mapping: bool = True
    #: Order layer migration under the U_max buffer bound (Algorithm 2).
    memory_optimized_migration: bool = True
    #: Overlap migration with serving by front-loading early pipeline stages.
    progressive_migration: bool = True
    #: Token-level commit + KV-cache migration (stateful inference recovery).
    stateful_recovery: bool = True
    #: Allow mixing on-demand instances when spot capacity is insufficient.
    allow_on_demand: bool = False
    #: Seconds between workload re-evaluations (also the arrival-rate window).
    workload_check_interval: float = 30.0
    #: Optional latency SLO passed to the configuration optimizer.
    slo_latency: Optional[float] = None
    #: Autoscaling policy name ("target-utilization", "queue-latency",
    #: "cost-aware"); None disables demand-driven fleet sizing entirely.
    autoscale_policy: Optional[str] = None
    #: Keyword arguments forwarded to the autoscaler factory
    #: (min_instances, max_instances, cooldown, policy parameters, ...).
    autoscale_params: Optional[Dict] = None
    #: Keep completed Request objects in ``ServingStats`` (handy for tests
    #: and ad-hoc inspection).  Heavy-traffic runs switch this off so memory
    #: stops growing with run length; every derived metric and digest is
    #: computed from streaming aggregates either way.
    retain_completed_requests: bool = True
    #: Overload-control policy name ("queue-cap", "deadline-aware",
    #: "token-bucket"; see :mod:`repro.core.admission`).  ``None`` disables
    #: the admission hooks entirely (byte-identical to builds without the
    #: subsystem -- the golden digests pin this).
    admission: Optional[str] = None
    #: Keyword arguments forwarded to the admission-policy factory.
    admission_params: Optional[Dict] = None
    #: Host/object-storage spill tier for grace-window migration (see
    #: :class:`repro.sim.network.OffloadTierSpec`).  ``None`` disables the
    #: tier entirely -- byte-identical to builds without the subsystem (the
    #: golden digests pin this, like ``admission``).  With a tier
    #: installed, a migration that cannot beat the merged grace deadline
    #: spills its tail to the tier instead of abandoning cache preservation.
    offload_tier: Optional[OffloadTierSpec] = None
    #: Fleet partitioner consulted once per adaptation round (duck-typed to
    #: avoid a circular import; see :class:`repro.core.tenancy.FleetPartitioner`).
    #: ``None`` disables the hook entirely -- byte-identical to builds
    #: without the tenancy subsystem (the golden digests pin this, like
    #: ``admission``).  With a partitioner installed the system only plans
    #: on the share :meth:`share_for` grants it.
    fleet_partitioner: Optional[object] = None


class ServingSystemBase:
    """Shared machinery for every serving system in the reproduction."""

    name = "base"

    def __init__(
        self,
        simulator: Simulator,
        provider: CloudProvider,
        model: ModelSpec,
        options: Optional[SpotServeOptions] = None,
        initial_arrival_rate: float = 0.35,
        perf: Optional[PhaseTimers] = None,
        tenant: str = "",
    ) -> None:
        self.simulator = simulator
        self.provider = provider
        self.model = model
        #: Tenant label in multi-tenant runs (``""`` in single-tenant mode).
        self.tenant = tenant
        self.options = options or SpotServeOptions()
        self.latency_model = LatencyModel(model, provider.instance_type.gpu)
        self.memory_model = MemoryModel(model, provider.instance_type.gpu)
        self.network = NetworkModel(zone_of=provider.zone_of)
        self.initial_arrival_rate = initial_arrival_rate
        self.gpus_per_instance = provider.instance_type.gpus_per_instance

        #: Tenancy: the coordinator installs an ownership predicate and a
        #: zone set on the manager, and this system ignores the instance
        #: events of instances (and outages of zones) it does not own.
        self.instance_manager = InstanceManager(
            provider, allow_on_demand=self.options.allow_on_demand
        )
        self.meta_context = MetaContextManager(model)
        self.stats = ServingStats(
            system_name=self.name,
            tenant=self.tenant,
            retain_requests=self.options.retain_completed_requests,
        )
        self.dataplane = Dataplane(simulator, self.stats, self.meta_context, self.latency_model)
        #: The dataplane's FIFO queue (the admission hooks consult it).
        self.request_queue = self.dataplane.queue
        #: Wall-clock phase timers shared by the whole control stack
        #: (propose / map / plan / simulate); read by ``benchmarks/perf``.
        #: Multi-tenant runs pass one shared instance so the perf harness
        #: sees the whole fleet's control-stack time in one place.
        self.perf = perf if perf is not None else PhaseTimers()

        self.profiler = OfflineProfiler(self.latency_model, self.memory_model)
        self.config_space = ConfigurationSpace(
            model,
            self.memory_model,
            gpus_per_instance=self.gpus_per_instance,
        )
        self.controller = ParallelizationController(
            self.config_space,
            self.profiler,
            slo_latency=self.options.slo_latency,
            timers=self.perf,
        )
        self.autoscaler: Optional[Autoscaler] = None
        if self.options.autoscale_policy is not None:
            self.autoscaler = make_autoscaler(
                self.options.autoscale_policy,
                controller=self.controller,
                **(self.options.autoscale_params or {}),
            )
        self.admission: Optional[AdmissionPolicy] = None
        if self.options.admission is not None:
            self.admission = make_admission_policy(
                self.options.admission, **(self.options.admission_params or {})
            )

        # Fault injection.  The injector lives on the provider and its
        # counters mirror into ``self.stats``; with no injector (the
        # default) the run is byte-identical to the fault-free code.
        self.fault_injector = provider.fault_injector
        if self.fault_injector is not None:
            self.fault_injector.bind_stats(self.stats)
            self.network.degradation = lambda: self.fault_injector.bandwidth_factor(
                self.simulator.now
            )
        if self.options.offload_tier is not None:
            self.network.offload_tier = self.options.offload_tier
        self.acquirer = FleetAcquirer(self)

        #: True from scheduling a reconfiguration until its migration ends.
        self.reconfiguring = False
        self._replan_after_migration = False
        #: Spilled bytes awaiting their destination-side restore, per
        #: destination instance (set while a tiered reconfiguration is in
        #: flight, empty otherwise).  Closes the spill conservation equation
        #: at any instant; see :meth:`pending_spill_bytes`.
        self._pending_spill: Dict[str, float] = {}
        #: Arrival timestamps in event order (monotone non-decreasing);
        #: ``_arrival_start`` is the live window's first index so the rate
        #: estimator trims lazily instead of popping per call.
        self._arrival_times: List[float] = []
        self._arrival_start: int = 0
        #: Streaming workload source (see :meth:`submit_arrival_process`).
        self._arrival_iter: Optional[Iterator[float]] = None
        self._arrival_token_sizes: Tuple[int, int] = (0, 0)
        self._arrival_order_major: int = 0
        self._submitted_requests: int = 0
        self._arrived_requests: int = 0
        self._initialized = False

        self._register_handlers()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _register_handlers(self) -> None:
        """Subscribe to the broadcast event types (see the module docstring)."""
        self.simulator.on(EventType.PREEMPTION_NOTICE, self._on_preemption_notice)
        self.simulator.on(EventType.PREEMPTION_FINAL, self._on_preemption_final)
        self.simulator.on(EventType.ZONE_OUTAGE, self._on_zone_outage)
        self.simulator.on(EventType.ACQUISITION_READY, self._on_acquisition_ready)
        self.simulator.on(EventType.LAUNCH_FAILURE, self._on_launch_failure)
        self.simulator.on(EventType.WORKLOAD_CHECK, self._on_workload_check)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def current_config(self) -> Optional[ParallelConfig]:
        """The deployed configuration (``None`` when nothing is deployed)."""
        return self.dataplane.config

    def submit_requests(self, requests: Sequence[Request]) -> None:
        """Schedule arrival events for *requests* (pre-materialised workload)."""
        schedule = self.simulator.schedule_at
        for request in requests:
            if self.tenant:
                request.tenant = self.tenant
            schedule(
                request.arrival_time,
                EventType.REQUEST_ARRIVAL,
                payload=request,
                callback=self._on_request_arrival,
            )
        self._submitted_requests += len(requests)

    def submit_arrival_process(self, process: ArrivalProcess, duration: float) -> None:
        """Stream arrivals from *process* instead of pre-scheduling them all.

        Only the *next* arrival is ever pending: each arrival event's
        callback re-arms the source with the following timestamp from
        :meth:`~repro.workload.arrival.ArrivalProcess.iter_times` before
        handling its request, so the event heap holds O(1) arrival entries
        instead of one per request and no :class:`Request` exists before
        its arrival instant.  Arrival times are generated by exactly the
        same seeded draws as ``process.arrival_times(duration)``, and a
        tie-break order slot reserved *now* makes every streamed arrival
        sort against same-time events exactly as if the whole workload had
        been pre-scheduled here -- so runs are byte-identical with the
        pre-scheduled path even on exact timestamp ties (e.g. integer
        ``FixedArrivals`` colliding with a workload check).
        """
        self._arrival_iter = process.iter_times(duration)
        self._arrival_token_sizes = (process.input_tokens, process.output_tokens)
        self._arrival_order_major = self.simulator.queue.reserve_order()
        self._arm_next_arrival()

    @property
    def submitted_requests(self) -> int:
        """Requests submitted so far (pre-scheduled and streamed)."""
        return self._submitted_requests

    def _arm_next_arrival(self) -> None:
        """Schedule the streaming source's next arrival (or finish)."""
        iterator = self._arrival_iter
        if iterator is None:
            return
        time = next(iterator, None)
        if time is None:
            self._arrival_iter = None
            return
        input_tokens, output_tokens = self._arrival_token_sizes
        request = Request(
            arrival_time=time,
            input_tokens=input_tokens,
            output_tokens=output_tokens,
            tenant=self.tenant,
        )
        self._submitted_requests += 1
        self.simulator.schedule_at(
            time,
            EventType.REQUEST_ARRIVAL,
            payload=request,
            callback=self._on_streamed_arrival,
            order=(self._arrival_order_major, self._submitted_requests),
        )

    def _on_streamed_arrival(self, event: Event) -> None:
        self._arm_next_arrival()
        self._on_request_arrival(event)

    def initialize(self) -> None:
        """Deploy the initial configuration on the time-zero fleet (pre-warmed)."""
        self._initialized = True
        manager = self.instance_manager
        manager.adopt_initial_fleet()
        self.dataplane.launched.update(inst.instance_id for inst in manager.held_instances())
        config = self._initial_config()
        if config is not None:
            self.dataplane.deploy(
                config, default_placement(config, manager.stable_devices())
            )
            self.stats.record_config(0.0, config)
        if self.options.workload_check_interval > 0:
            self.simulator.schedule_after(
                self.options.workload_check_interval,
                EventType.WORKLOAD_CHECK,
                payload={"system": self},
            )

    def run(self, until: float) -> ServingStats:
        """Initialise (if not done yet), run the simulation, return the statistics."""
        if not self._initialized:
            self.initialize()
        with self.perf.phase("simulate"):
            self.simulator.run(until=until)
        return self.stats

    # ------------------------------------------------------------------
    # Hooks that subclasses specialise
    # ------------------------------------------------------------------
    def _initial_config(self) -> Optional[ParallelConfig]:
        decision = self.controller.propose(
            self.instance_manager.available_count(), self.initial_arrival_rate
        )
        return decision.config if decision else None

    def handle_preemption_notice(self, instance: Instance, deadline: float) -> None:
        """React to a preemption notice (subclasses override)."""

    def handle_preemption_final(self, instance: Instance) -> None:
        """React to an instance disappearing (subclasses override)."""

    def handle_early_preemption(
        self, instance: Instance, announced_deadline: float
    ) -> None:
        """React to a reclaim that beat its announced deadline (Section 4.2).

        Called *before* :meth:`handle_preemption_final` when the
        ``PREEMPTION_FINAL`` fires earlier than the deadline the notice
        advertised (only the fault injector produces such reclaims;
        subclasses override to rearrange in-flight work).
        """

    def handle_context_dropped(self, instance_id: str) -> None:
        """React to an instance's context leaving the meta-context.

        Called after every ``meta_context.drop_instance`` so subclasses can
        invalidate caches keyed on the dropped devices (subclasses override).
        """

    def handle_acquisition_ready(self, instance: Instance) -> None:
        """React to a new instance becoming usable (subclasses override)."""

    def handle_workload_check(self) -> None:
        """Periodic workload re-evaluation (subclasses override)."""

    def handle_zone_outage(self, zone: str, phase: str, payload: Dict) -> None:
        """React to a zone-outage phase (subclasses override)."""

    def handle_replan(self) -> None:
        """Re-evaluate the deployment after a deferred trigger (subclasses override)."""
        self.handle_workload_check()

    # ------------------------------------------------------------------
    # Event handlers (shared bookkeeping, then delegate to hooks)
    # ------------------------------------------------------------------
    def _on_request_arrival(self, event: Event) -> None:
        request: Request = event.payload
        self._arrived_requests += 1
        if self.admission is not None and not self.admission.admit(
            request,
            AdmissionSignal(
                time=event.time,
                queue_depth=self.request_queue.pending,
                slo_latency=self.options.slo_latency,
            ),
        ):
            # Rejected requests never enter the queue *or* the arrival-rate
            # window: the autoscaler and controller size the fleet for the
            # admitted load only (post-admission effective demand).
            self.stats.requests_rejected += 1
            return
        self._arrival_times.append(request.arrival_time)
        self.request_queue.enqueue(request)
        self.dataplane.dispatch()

    def _on_preemption_notice(self, event: Event) -> None:
        instance: Instance = event.payload["instance"]
        if not self.instance_manager.owns(instance):
            return
        self.stats.preemption_notices += 1
        self.instance_manager.on_preemption_notice(event)
        self.handle_preemption_notice(
            instance, self.instance_manager.grace_deadlines[instance.instance_id]
        )

    def _on_preemption_final(self, event: Event) -> None:
        instance: Instance = event.payload["instance"]
        if not self.instance_manager.owns(instance):
            return
        # Detect a reclaim landing before its announced deadline *before*
        # the bookkeeping pops the deadline.  The fault-free provider never
        # fires a final early (zone outages included), so with no injector
        # this comparison is always false and the path is digest-neutral.
        announced = self.instance_manager.grace_deadlines.get(instance.instance_id)
        early = InterruptionArranger.is_early_preemption(announced, event.time)
        self.instance_manager.on_preemption_final(event)
        if early:
            self.stats.early_preemptions += 1
            self.handle_early_preemption(instance, announced)
        self.handle_preemption_final(instance)
        self.meta_context.drop_instance(instance.instance_id)
        self.handle_context_dropped(instance.instance_id)

    def _on_acquisition_ready(self, event: Event) -> None:
        instance: Instance = event.payload["instance"]
        if not self.instance_manager.owns(instance):
            return
        self.stats.acquisitions += 1
        self.acquirer.disarm_watchdog(instance)
        self.instance_manager.on_acquisition_ready(event)
        self.handle_acquisition_ready(instance)

    def _on_zone_outage(self, event: Event) -> None:
        """Shared zone-outage bookkeeping, then delegate to the hook.

        ``"warning"`` dooms the whole zone (on-demand instances included --
        they get no per-instance preemption notice); ``"down"`` drops the
        instances the outage killed and tears down every pipeline that
        referenced one, re-queueing the interrupted requests so none is
        lost; ``"restored"`` is bookkeeping-free.  Subclasses react (replan,
        evacuate) in :meth:`handle_zone_outage`.
        """
        payload = event.payload
        zone: str = payload["zone"]
        phase: str = payload["phase"]
        if zone not in self.instance_manager.visible_zones():
            return  # Outage in a zone another tenant owns exclusively.
        if phase == "warning":
            self.instance_manager.on_zone_outage_warning(zone, payload["start"])
        elif phase == "down":
            self.stats.zone_outages += 1
            dead = self.instance_manager.on_zone_outage_down(zone)
            self.dataplane.teardown({instance.instance_id for instance in dead})
            for instance in dead:
                self.meta_context.drop_instance(instance.instance_id)
                self.handle_context_dropped(instance.instance_id)
        self.handle_zone_outage(zone, phase, payload)

    def _on_launch_failure(self, event: Event) -> None:
        """A granted instance died while still launching (fault injection).

        The provider's callback already failed the instance and set
        ``applied`` in the payload (False when a zone outage or preemption
        got there first).  The server forgets the instance and the acquirer
        re-requests the lost capacity with backoff.
        """
        instance: Instance = event.payload["instance"]
        if not self.instance_manager.owns(instance) or not event.payload.get("applied", False):
            return
        self.instance_manager.on_launch_failure(event)
        self.acquirer.launch_failed(instance)

    def _on_workload_check(self, event: Event) -> None:
        # On a shared simulator every system sees every WORKLOAD_CHECK; the
        # ``system`` payload key scopes each round to the system that armed
        # it (absent on legacy events, so single-tenant behaviour and the
        # golden digests are untouched).
        owner = event.payload.get("system") if event.payload else None
        if owner is not None and owner is not self:
            return
        # Fleet partition first, then overload control: shedding runs before
        # the autoscaler and the workload re-evaluation so sizing and
        # configuration decisions see the post-shed backlog (and, in
        # multi-tenant mode, only this round's share of the fleet).
        self._run_partitioner_round()
        self._run_admission_round()
        self.acquirer.run_autoscaler()
        self.handle_workload_check()
        if self.options.workload_check_interval > 0:
            self.simulator.schedule_after(
                self.options.workload_check_interval,
                EventType.WORKLOAD_CHECK,
                payload={"system": self},
            )

    def _run_partitioner_round(self) -> None:
        """Consult the fleet partitioner once per adaptation round.

        With no partitioner installed (the default) this is a no-op.  With
        one installed, the instances the partitioner assigns to *other*
        tenants are excluded from the manager's stable view for the rest of
        the round, so the propose/map/plan stack only ever sees this
        tenant's share.  A partitioner that grants the whole stable set
        (any single-tenant setup) leaves the view untouched, which the
        counting-partitioner golden test pins non-vacuously.
        """
        partitioner = self.options.fleet_partitioner
        if partitioner is None:
            return
        # Lift last round's restriction first: the partitioner re-splits
        # from the whole stable set, never from its own previous output.
        self.instance_manager.excluded = None
        share = partitioner.share_for(self)
        stable = self.instance_manager.stable_instances()
        excluded = frozenset(
            inst.instance_id for inst in stable if inst.instance_id not in share
        )
        self.instance_manager.excluded = excluded or None

    def _run_admission_round(self) -> None:
        """Consult the shedding policy once per adaptation round.

        Every signal field is a pure function of the seeded simulation
        state, so a policy that ignores the signal cannot perturb the run.
        """
        if self.admission is None:
            return
        arrival_rate, estimate = self.serving_estimate()
        signal = AdmissionSignal(
            time=self.simulator.now,
            queue_depth=self.request_queue.pending,
            arrival_rate=arrival_rate,
            serving_throughput=estimate.throughput if estimate is not None else 0.0,
            execution_latency=estimate.execution_latency if estimate is not None else 0.0,
            slo_latency=self.options.slo_latency,
        )
        self.admission.observe_round(signal)
        shed = self.admission.shed(self.request_queue, signal)
        if shed:
            self.stats.requests_shed += len(shed)

    # ------------------------------------------------------------------
    # Demand estimation
    # ------------------------------------------------------------------
    def serving_estimate(self) -> Tuple[float, Optional[ConfigEstimate]]:
        """The arrival-rate estimate, and the deployed configuration's
        estimate at that rate (``None`` while nothing is deployed)."""
        arrival_rate = self.estimate_arrival_rate()
        config = self.current_config
        if config is None:
            return arrival_rate, None
        return arrival_rate, self.controller.estimate(config, arrival_rate)

    def estimate_arrival_rate(self) -> float:
        """Demanded serving rate: recent arrivals plus backlog pressure.

        The paper estimates ``alpha_t`` "by observing the request arrivals
        within a short past duration"; with the CV=6 Gamma workload a single
        30 s window is far too noisy, so a longer window is used and the
        requests already waiting in the queue add drain pressure (otherwise a
        configuration that exactly matches the arrival rate would never catch
        up after a stall).
        """
        short_window = max(4.0 * self.options.workload_check_interval, 120.0)
        long_window = 3.0 * short_window
        now = self.simulator.now
        arrivals = self._arrival_times
        total = len(arrivals)
        # Arrivals are appended in event order, so the list is monotone and
        # the window boundaries are a bisect away (the old deque did a full
        # scan per call).  Entries older than the retention horizon are
        # dropped lazily once they dominate the list, keeping memory bounded
        # by the horizon's arrival count on arbitrarily long runs.
        start = bisect_left(arrivals, now - 2 * long_window, self._arrival_start)
        if start > 1024 and start * 2 > total:
            del arrivals[:start]
            total -= start
            start = 0
        self._arrival_start = start

        def rate_over(window: float) -> float:
            """Observed arrival rate over the trailing *window* seconds."""
            span = min(window, max(now, 1.0))
            recent = total - bisect_left(arrivals, now - window, start)
            observed = recent / span
            if now < window:
                observed = max(observed, self.initial_arrival_rate)
            return observed

        # The short window reacts to ramps quickly; the long window keeps a
        # quiet burst gap from looking like a workload collapse.
        observed = max(rate_over(short_window), rate_over(long_window))
        backlog_pressure = self.request_queue.pending / short_window
        return max(observed + backlog_pressure, 1e-3)

    # ------------------------------------------------------------------
    # Conservation views
    # ------------------------------------------------------------------
    def unfinished_request_count(self) -> int:
        """Submitted requests that are still somewhere in the system.

        Counts the queue backlog, the in-flight batches, the interrupted
        batches waiting to resume, and submitted requests whose arrival
        event has not fired yet (pre-scheduled or armed by the streaming
        source).  Request conservation -- the invariant the zone-outage and
        admission regression suites pin -- then holds at *any* simulation
        instant::

            submitted == completed + unfinished + stats.requests_dropped
                         + stats.requests_rejected + stats.requests_shed

        (the last two buckets stay zero unless an overload-control policy
        is active; see :mod:`repro.core.admission`).
        """
        unarrived = self._submitted_requests - self._arrived_requests
        return self.dataplane.unfinished() + unarrived

    def pending_spill_bytes(self) -> float:
        """Bytes parked in the offload tier awaiting their restore.

        Non-zero only while a tiered reconfiguration is in flight (between
        its RECONFIGURATION and MIGRATION_COMPLETE events).  The spill
        conservation invariant -- the tiered analogue of request
        conservation -- then holds at *any* simulation instant::

            stats.bytes_spilled == stats.bytes_restored
                                   + stats.bytes_abandoned
                                   + pending_spill_bytes()
        """
        return float(sum(self._pending_spill.values()))

    # ------------------------------------------------------------------
    # Reconfiguration execution shared by SpotServe and the baselines
    # ------------------------------------------------------------------
    def _schedule_reconfiguration(self, transition: Transition) -> None:
        """Arm the switch to *transition* at its stop time."""
        self.reconfiguring = True
        self.simulator.schedule_at(
            max(transition.stop_time, self.simulator.now),
            EventType.RECONFIGURATION,
            payload=transition,
            callback=self._execute_reconfiguration_event,
        )

    def _execute_reconfiguration_event(self, event: Event) -> None:
        transition: Transition = event.payload
        now = self.simulator.now
        interrupted = self.dataplane.interrupt_all(transition.preserve_cache)
        # Keep the batches with the most decoding progress if the new
        # configuration holds fewer concurrent requests (Section 3.3).
        kept, discarded = DeviceMapper.select_batches_to_keep(
            interrupted, transition.config.data_degree
        )
        old_config = self.current_config
        self.dataplane.suspend(kept, discarded, now + transition.stall_time)
        self.stats.record_reconfiguration(
            ReconfigurationRecord(
                time=now,
                old_config=old_config,
                new_config=transition.config,
                reason=transition.reason,
                stall_time=transition.stall_time,
                migrated_bytes=transition.migrated_bytes,
                reused_bytes=transition.reused_bytes,
                objective=transition.objective,
            )
        )
        spill_restores = transition.spill_restores
        if spill_restores:
            # The sources have uploaded their suffix to the offload tier by
            # the time the reconfiguration fires; the bytes now sit in the
            # tier awaiting the destination-side restore.
            self.stats.bytes_spilled += sum(spill_restores.values())
            self._pending_spill = dict(spill_restores)
        self.simulator.schedule_at(
            self.dataplane.stalled_until,
            EventType.MIGRATION_COMPLETE,
            payload=transition,
            callback=self._finish_reconfiguration,
        )

    def _finish_reconfiguration(self, event: Event) -> None:
        transition: Transition = event.payload
        live_devices = set(self.instance_manager.stable_devices())
        placement = {
            device: position
            for device, position in transition.placement.items()
            if device in live_devices
        }
        spill_restores = transition.spill_restores
        if spill_restores:
            # Settle the tier: destinations that survived the migration pull
            # their bytes back down; bytes whose destination died in flight
            # are abandoned.  Either way the tier is drained, keeping
            # ``bytes_spilled == bytes_restored + bytes_abandoned`` exact.
            live_instances = {device[0] for device in live_devices}
            restored = 0.0
            abandoned = 0.0
            for instance, size in spill_restores.items():
                if instance in live_instances:
                    restored += size
                else:
                    abandoned += size
            self.stats.bytes_restored += restored
            self.stats.bytes_abandoned += abandoned
            if restored > 0:
                self.stats.restores += 1
            self._pending_spill = {}
        self.dataplane.deploy(transition.config, placement)
        self.dataplane.launched.update(
            instance.instance_id for instance in self.instance_manager.held_instances()
        )
        self.reconfiguring = False
        self.dataplane.dispatch()
        if self._replan_after_migration:
            self._replan_after_migration = False
            self.handle_replan()


class SpotServeSystem(ServingSystemBase):
    """The SpotServe serving system (the paper's contribution)."""

    name = "SpotServe"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.device_mapper = DeviceMapper(
            self.model,
            gpus_per_instance=self.gpus_per_instance,
            use_optimal_matching=self.options.optimal_device_mapping,
            hierarchical=self.options.hierarchical_mapping,
            zone_of=self.provider.zone_of,
            timers=self.perf,
        )
        self.migration_planner = MigrationPlanner(
            self.model,
            self.network,
            memory_optimized=self.options.memory_optimized_migration,
            progressive=self.options.progressive_migration,
            timers=self.perf,
        )
        self.transitions = TransitionPlanner(self)
        self._downscale_votes = 0
        #: Zones currently under an outage (warning or dark).  While any is
        #: active the mapper and planner run in evacuation mode: intra-zone
        #: placement preference and same-zone source ranking are suspended so
        #: the lost pipelines re-place across whatever survives.
        self._evacuating_zones: set = set()
        if self.options.memory_optimized_migration:
            migration_buffer = DEFAULT_MIGRATION_BUFFER_BYTES
        else:
            # Without the memory-optimised planner the receive buffer can grow
            # to half of a GPU's model slice, shrinking the feasible space
            # (this is what pushes GPT-20B from 12 back to 16 GPUs).
            migration_buffer = self.model.total_param_bytes / 16
        self.config_space.migration_buffer_bytes = migration_buffer

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------
    def handle_preemption_notice(self, instance: Instance, deadline: float) -> None:
        """Re-plan immediately so migration fits inside the grace period."""
        self._plan_reconfiguration(reason="preemption")

    def handle_preemption_final(self, instance: Instance) -> None:
        """Tear down pipelines that still referenced the vanished instance."""
        # If the instance is still referenced by a running pipeline (the
        # reconfiguration did not finish in time), interrupt those pipelines
        # and requeue their requests without the lost cache.
        affected = self.dataplane.teardown({instance.instance_id})
        if not affected:
            return
        self._plan_reconfiguration(reason="preemption-final")

    def handle_early_preemption(
        self, instance: Instance, announced_deadline: float
    ) -> None:
        """Section 4.2: the reclaim beat its announced grace deadline.

        Any JIT arrangement of the pipelines still touching the vanished
        instance was budgeted against the *announced* deadline and is now
        void: the cache context is abandoned and decoding stops at once.
        The affected pipelines are torn down (requests re-queued without
        their cache, conserving every request), then the survivors are
        replanned.
        """
        if self.dataplane.teardown({instance.instance_id}):
            self._plan_reconfiguration(reason="early-preemption")

    def handle_zone_outage(self, zone: str, phase: str, payload: Dict) -> None:
        """Evacuate the fleet out of a dying zone (the tentpole fault path).

        The warning phase already doomed every instance of the zone (they
        are out of :meth:`~repro.cloud.manager.InstanceManager
        .stable_instances`), so re-planning now re-places the deployment on
        the surviving zones while the grace window lets context migrate out;
        the down phase handles the unannounced case (pipelines torn down by
        the shared bookkeeping, requests re-queued) and re-plans on whatever
        is left.  Mapper and planner stay in evacuation mode until the zone
        is restored.
        """
        if phase == "restored":
            self._evacuating_zones.discard(zone)
            if not self._evacuating_zones:
                self.device_mapper.evacuation_mode = False
                self.migration_planner.evacuation_mode = False
            return
        self._evacuating_zones.add(zone)
        self.device_mapper.evacuation_mode = True
        self.migration_planner.evacuation_mode = True
        if phase == "warning":
            self._plan_reconfiguration(reason="zone-outage")
        else:
            self._plan_reconfiguration(reason="zone-outage-final")

    def handle_context_dropped(self, instance_id: str) -> None:
        """Evict memoised plans naming the vanished instance's devices.

        Plan-memo keys that mention the dropped devices can never hit
        again (the context signature in the key no longer matches), so a
        full clear is pure memory hygiene, never a correctness need.
        """
        self.migration_planner.invalidate_plan_memo()

    def handle_acquisition_ready(self, instance: Instance) -> None:
        """Fold the new instance into the deployment (JIT arrangement)."""
        self._plan_reconfiguration(reason="acquisition")

    def handle_replan(self) -> None:
        """Deferred re-plan after an in-flight migration finished."""
        self._plan_reconfiguration(reason="followup")

    def handle_workload_check(self) -> None:
        """Adaptation round: re-optimise the configuration with hysteresis."""
        if not self.options.adaptive_controller:
            return
        decision = self._propose()
        if decision is None:
            return
        if self.current_config is None:
            self._plan_reconfiguration(reason="workload")
            return
        if decision.config == self.current_config:
            self._downscale_votes = 0
            return
        arrival_rate = self.estimate_arrival_rate()
        current_estimate = self.controller.estimate(self.current_config, arrival_rate)
        overloaded = current_estimate.throughput < arrival_rate
        if overloaded:
            # The serving capability is incompatible with the workload: act now.
            self._downscale_votes = 0
            self._plan_reconfiguration(reason="workload")
            return
        shrinking = decision.estimate.throughput < current_estimate.throughput
        if shrinking:
            # Hysteresis: only shed capacity after several consecutive checks
            # agree, so a single quiet burst gap does not trigger a shrink.
            self._downscale_votes += 1
            if self._downscale_votes < 3:
                return
            self._downscale_votes = 0
            self._plan_reconfiguration(reason="workload")
            return
        # Neither overloaded nor shrinking: only act on clear latency wins so
        # the system does not churn between near-equivalent configurations.
        self._downscale_votes = 0
        if decision.estimate.request_latency < 0.9 * current_estimate.request_latency:
            self._plan_reconfiguration(reason="workload")

    # ------------------------------------------------------------------
    # Reconfiguration planning
    # ------------------------------------------------------------------
    def _propose(self) -> Optional[OptimizerDecision]:
        available = self.instance_manager.available_count()
        if available <= 0:
            return None
        arrival_rate = self.estimate_arrival_rate()
        extra = MAX_ON_DEMAND_EXTRA if self.options.allow_on_demand else 0
        return self.controller.propose(
            available, arrival_rate, max_instances=available + extra
        )

    def _plan_reconfiguration(self, reason: str) -> None:
        # Reclaim deadlines are not passed in: the transition planner reads
        # the instance manager's ``grace_deadlines`` (kept current by the
        # notice and zone-outage bookkeeping), so every trigger budgets
        # against the earliest real deadline.
        if self.reconfiguring:
            self._replan_after_migration = True
            return
        available = self.instance_manager.available_count()
        arrival_rate = self.estimate_arrival_rate()
        adaptive = self.options.adaptive_controller
        decision = target = None
        if available > 0:
            decision = (
                self._propose() if adaptive else self._static_decision(available, arrival_rate)
            )
            target = decision
        if (
            decision is not None
            and decision.config.num_instances(self.gpus_per_instance) > available
        ):
            # Deploy the best configuration that fits the instances usable *now*.
            target = (
                self.controller.propose(available, arrival_rate)
                if adaptive
                else self._static_decision(available, arrival_rate)
            )
        if target is None:
            # No instance left, or no feasible configuration on them.
            self.dataplane.halt(preserve_cache=self.options.stateful_recovery)
            return
        target = self._apply_sticky_policy(target, reason, available, arrival_rate)
        self.acquirer.follow_optimizer(decision, target, available)
        if self._can_skip_reconfiguration(target.config, reason):
            return
        self._schedule_reconfiguration(
            self.transitions.prepare(target.config, reason, target.objective)
        )

    def _apply_sticky_policy(
        self,
        target: OptimizerDecision,
        reason: str,
        available: int,
        arrival_rate: float,
    ) -> OptimizerDecision:
        """Keep the current configuration when shrinking is not forced.

        Availability-triggered events (preemptions, acquisitions) never shrink
        the deployment's throughput on their own: capacity is only shed by the
        workload checks, which apply hysteresis.  This prevents a quiet burst
        gap from releasing spot instances right before the next burst.
        """
        if (
            reason == "workload"
            or self.current_config is None
            or self.current_config.num_instances(self.gpus_per_instance) > available
            or not self.config_space.fits(self.current_config)
        ):
            return target
        current_estimate = self.controller.estimate(self.current_config, arrival_rate)
        if target.estimate.throughput >= current_estimate.throughput:
            return target
        return OptimizerDecision(
            config=self.current_config,
            estimate=current_estimate,
            instance_delta=0,
            objective="keep",
            arrival_rate=arrival_rate,
            available_instances=available,
        )

    def _can_skip_reconfiguration(self, new_config: ParallelConfig, reason: str) -> bool:
        """True when no reparallelization is needed for this trigger.

        Keeping the same configuration still requires a membership update when
        any device of the current deployment is about to disappear or the
        deployment is not fully populated; otherwise (e.g. a spare instance
        was preempted, or an acquisition arrived while the current
        configuration already suffices) the trigger can be absorbed silently.
        """
        pipelines = self.dataplane.pipelines
        if new_config != self.current_config or not pipelines:
            return False
        unavailable = self.instance_manager.grace_deadlines
        for pipeline in pipelines:
            for instance_id in pipeline.assignment.instance_ids:
                if instance_id in unavailable:
                    return False
            if not pipeline.assignment.is_fully_assigned:
                return False
        return True

    def _static_decision(
        self, available: int, arrival_rate: float
    ) -> Optional[OptimizerDecision]:
        """Ablation fallback: keep the current (D, P, M) shape if it still fits."""
        if self.current_config is None:
            return self.controller.propose(available, arrival_rate)
        config = self.current_config
        max_gpus = available * self.gpus_per_instance
        data_degree = min(
            config.data_degree, max_gpus // max(config.gpus_per_pipeline, 1)
        )
        if data_degree <= 0:
            return None
        shrunk = ParallelConfig(
            data_degree, config.pipeline_degree, config.tensor_degree, config.batch_size
        )
        estimate = self.controller.estimate(shrunk, arrival_rate)
        return OptimizerDecision(
            config=shrunk,
            estimate=estimate,
            instance_delta=shrunk.num_instances(self.gpus_per_instance) - available,
            objective="static",
            arrival_rate=arrival_rate,
            available_instances=available,
        )
