"""Serving systems: the shared event-driven skeleton and SpotServe itself.

:class:`ServingSystemBase` provides the machinery every serving system in the
reproduction shares -- request queueing, batch dispatch, pipeline lifecycle,
statistics, demand-driven autoscaling and overload control -- wired to the
discrete-event simulator and the simulated cloud provider.
:class:`SpotServeSystem` implements the paper's system on top of it: the
parallelization controller (Algorithm 1), the KM device mapper, the
progressive/memory-optimised migration planner (Algorithm 2) and stateful
inference recovery with the JIT interruption arranger.  The baselines in
:mod:`repro.baselines` subclass the same base so that every system sees the
identical workload, trace and inference engine.

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
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..cloud.instance import Instance
from ..cloud.manager import InstanceManager
from ..cloud.provider import CloudProvider
from ..engine.batching import Batch, RequestQueue
from ..faults.injector import RetryPolicy
from ..engine.context import DeviceId, MetaContextManager
from ..engine.pipeline import InferencePipeline, PipelineAssignment
from ..engine.placement import TopologyPosition, mesh_positions
from ..llm.costmodel import DEFAULT_INPUT_LENGTH, LatencyModel
from ..llm.memory import DEFAULT_MIGRATION_BUFFER_BYTES, MemoryModel
from ..llm.profiler import OfflineProfiler
from ..llm.spec import ModelSpec
from ..perf import PhaseTimers
from ..sim.engine import Simulator
from ..sim.events import Event, EventType
from ..sim.network import NetworkModel, OffloadTierSpec
from ..workload.arrival import ArrivalProcess
from ..workload.request import Request
from .admission import AdmissionPolicy, AdmissionSignal, make_admission_policy
from .autoscaler import Autoscaler, AutoscaleSignal, ZoneView, make_autoscaler
from .config import ConfigurationSpace, ParallelConfig
from .controller import OptimizerDecision, ParallelizationController
from .device_mapper import DeviceMapper, DeviceMapping
from .interruption import InterruptionArranger
from .migration import MigrationPlan, MigrationPlanner
from .stats import AutoscaleRecord, ReconfigurationRecord, ServingStats

#: Engine process launch time on an instance that never served before.
ENGINE_LAUNCH_TIME = 30.0
#: Extra on-demand instances Algorithm 1 may request beyond the fleet.
MAX_ON_DEMAND_EXTRA = 4
#: Launch-watchdog timeout as a multiple of the instance startup delay.
LAUNCH_WATCHDOG_MULTIPLIER = 3.0
#: Capped exponential backoff for acquisition retries.
RETRY_POLICY = RetryPolicy()


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
    #: Overload-control policy name ("none", "queue-cap", "deadline-aware",
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
        #: Ownership predicate installed by the tenancy coordinator: when
        #: set, instance-scoped events for foreign instances are ignored so
        #: several systems can share one simulator.  ``None`` (the default)
        #: keeps every event -- byte-identical to single-tenant builds.
        self.instance_owned: Optional[Callable[[Instance], bool]] = None
        #: Zones this system may see (``None`` = whole market).  Installed
        #: alongside :attr:`instance_owned` by the tenancy coordinator.
        self.allowed_zones: Optional[frozenset] = None
        self.options = options or SpotServeOptions()
        self.latency_model = LatencyModel(model, provider.instance_type.gpu)
        self.memory_model = MemoryModel(model, provider.instance_type.gpu)
        self.network = NetworkModel(zone_of=provider.zone_of)
        self.initial_arrival_rate = initial_arrival_rate
        self.gpus_per_instance = provider.instance_type.gpus_per_instance

        self.instance_manager = InstanceManager(
            provider, allow_on_demand=self.options.allow_on_demand
        )
        self.meta_context = MetaContextManager(model)
        self.request_queue = RequestQueue(max_batch_size=8)
        self.stats = ServingStats(
            system_name=self.name,
            tenant=self.tenant,
            retain_requests=self.options.retain_completed_requests,
        )
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

        # Fault injection + acquisition resilience.  The injector lives on
        # the provider and its counters mirror into ``self.stats``;
        # acquisition retries and the launch watchdog run exactly when it is
        # set.  With no injector (the default) every hook below is a no-op
        # and the run is byte-identical to the fault-free code.
        self.fault_injector = provider.fault_injector
        if self.fault_injector is not None:
            self.fault_injector.bind_stats(self.stats)
            self.network.degradation = self._current_bandwidth_factor
        if self.options.offload_tier is not None:
            self.network.offload_tier = self.options.offload_tier
        #: Spilled bytes awaiting their destination-side restore, per
        #: destination instance (set while a tiered reconfiguration is in
        #: flight, empty otherwise).  Closes the spill conservation equation
        #: at any instant; see :meth:`pending_spill_bytes`.
        self._pending_spill: Dict[str, float] = {}
        #: Instances awaiting a scheduled backoff retry (fed to the
        #: autoscaler as ``pending_retries`` so it never double-requests).
        self._pending_retries: int = 0
        #: Launch-watchdog events per still-launching instance id.
        self._watchdog_events: Dict[str, Event] = {}

        self.current_config: Optional[ParallelConfig] = None
        self.pipelines: List[InferencePipeline] = []
        self._completion_events: Dict[int, Event] = {}
        self._resume_batches: Deque[Batch] = deque()
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
        self._initialized_instances: set = set()
        self._migration_until: float = 0.0
        self._reconfig_pending: bool = False
        self._replan_after_migration: bool = False
        self._pending_deadlines: Dict[str, float] = {}
        #: Zone -> reclaim deadline while a zone-outage warning is active
        #: (instances becoming ready in such a zone are doomed on arrival).
        self._zone_doom_deadlines: Dict[str, float] = {}

        self._register_handlers()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _register_handlers(self) -> None:
        self.simulator.on(EventType.REQUEST_ARRIVAL, self._on_request_arrival)
        self.simulator.on(EventType.PREEMPTION_NOTICE, self._on_preemption_notice)
        self.simulator.on(EventType.PREEMPTION_FINAL, self._on_preemption_final)
        self.simulator.on(EventType.ZONE_OUTAGE, self._on_zone_outage)
        self.simulator.on(EventType.ACQUISITION_READY, self._on_acquisition_ready)
        self.simulator.on(EventType.LAUNCH_FAILURE, self._on_launch_failure)
        self.simulator.on(EventType.BATCH_COMPLETION, self._on_batch_completion)
        self.simulator.on(EventType.RECONFIGURATION, self._on_reconfiguration)
        self.simulator.on(EventType.MIGRATION_COMPLETE, self._on_migration_complete)
        self.simulator.on(EventType.WORKLOAD_CHECK, self._on_workload_check)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit_requests(self, requests: Sequence[Request]) -> None:
        """Schedule arrival events for *requests* (pre-materialised workload)."""
        schedule = self.simulator.schedule_at
        for request in requests:
            if self.tenant:
                request.tenant = self.tenant
            schedule(request.arrival_time, EventType.REQUEST_ARRIVAL, payload=request)
        self._submitted_requests += len(requests)

    def submit_arrival_process(self, process: ArrivalProcess, duration: float) -> None:
        """Stream arrivals from *process* instead of pre-scheduling them all.

        Only the *next* arrival is ever pending: each arrival event's
        callback re-arms the source with the following timestamp from
        :meth:`~repro.workload.arrival.ArrivalProcess.iter_times`, so the
        event heap holds O(1) arrival entries instead of one per request and
        no :class:`Request` exists before its arrival instant.  Arrival
        times are generated by exactly the same seeded draws as
        ``process.arrival_times(duration)``, and a tie-break order slot
        reserved *now* makes every streamed arrival sort against same-time
        events exactly as if the whole workload had been pre-scheduled
        here -- so runs are byte-identical with the pre-scheduled path even
        on exact timestamp ties (e.g. integer ``FixedArrivals`` colliding
        with a workload check).
        """
        self._arrival_iter = process.iter_times(duration)
        self._arrival_token_sizes = (process.input_tokens, process.output_tokens)
        self._arrival_order_major = self.simulator.queue.reserve_order()
        self._arm_next_arrival()

    @property
    def submitted_requests(self) -> int:
        """Requests submitted so far (pre-scheduled and streamed)."""
        return self._submitted_requests

    def _arm_next_arrival(self, _event: Optional[Event] = None) -> None:
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
            callback=self._arm_next_arrival,
            order=(self._arrival_order_major, self._submitted_requests),
        )

    def initialize(self) -> None:
        """Deploy the initial configuration on the time-zero fleet (pre-warmed)."""
        self.instance_manager.adopt_initial_fleet()
        for instance in self.instance_manager.held_instances():
            self._initialized_instances.add(instance.instance_id)
        config = self._initial_config()
        if config is not None:
            devices = self._available_devices()
            placement = self._default_placement(config, devices)
            self._install_model_contexts(config, placement)
            self._build_pipelines(config, placement)
            self.current_config = config
            self.stats.record_config(0.0, config)
        if self.options.workload_check_interval > 0:
            self.simulator.schedule_after(
                self.options.workload_check_interval,
                EventType.WORKLOAD_CHECK,
                payload={"system": self},
            )

    def run(self, until: float) -> ServingStats:
        """Initialise (if needed), run the simulation and return the statistics."""
        if self.current_config is None and not self.pipelines and self.simulator.now == 0.0:
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

    # ------------------------------------------------------------------
    # Event handlers (shared bookkeeping, then delegate to hooks)
    # ------------------------------------------------------------------
    def _on_request_arrival(self, event: Event) -> None:
        request: Request = event.payload
        if request.tenant != self.tenant:
            return  # Another tenant's arrival on the shared simulator.
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
        self._dispatch()

    def _instance_visible(self, instance: Instance) -> bool:
        """True when this system should react to *instance*'s events.

        Always true in single-tenant mode (:attr:`instance_owned` is
        ``None``); the tenancy coordinator installs an ownership predicate
        so each tenant only reacts to its own slice of the shared fleet.
        """
        owned = self.instance_owned
        return owned is None or owned(instance)

    def _visible_zone_names(self) -> Sequence[str]:
        """The market zones this system may see (all of them by default)."""
        if self.allowed_zones is None:
            return self.provider.zone_names
        return [
            name for name in self.provider.zone_names if name in self.allowed_zones
        ]

    def _on_preemption_notice(self, event: Event) -> None:
        instance: Instance = event.payload["instance"]
        deadline: float = event.payload["deadline"]
        if not self._instance_visible(instance):
            return
        self.stats.preemption_notices += 1
        self.instance_manager.on_preemption_notice(event)
        # An instance can be doomed twice (zone-outage warning, then an
        # individual trace preemption); the *earliest* deadline wins or the
        # JIT arranger would budget the evacuation past the real reclaim.
        existing = self._pending_deadlines.get(instance.instance_id)
        if existing is not None and existing < deadline:
            deadline = existing
        self._pending_deadlines[instance.instance_id] = deadline
        self.handle_preemption_notice(instance, deadline)

    def _on_preemption_final(self, event: Event) -> None:
        instance: Instance = event.payload["instance"]
        if not self._instance_visible(instance):
            return
        # Detect a reclaim landing before its announced deadline *before*
        # the bookkeeping pops the deadline.  The fault-free provider never
        # fires a final early (zone outages included), so with no injector
        # this comparison is always false and the path is digest-neutral.
        announced = self._pending_deadlines.get(instance.instance_id)
        early = InterruptionArranger.is_early_preemption(announced, event.time)
        self.instance_manager.on_preemption_final(event)
        self._pending_deadlines.pop(instance.instance_id, None)
        if early:
            self.stats.early_preemptions += 1
            self.handle_early_preemption(instance, announced)
        self.handle_preemption_final(instance)
        self.meta_context.drop_instance(instance.instance_id)
        self.handle_context_dropped(instance.instance_id)

    def _on_acquisition_ready(self, event: Event) -> None:
        instance: Instance = event.payload["instance"]
        if not self._instance_visible(instance):
            return
        self.stats.acquisitions += 1
        watchdog = self._watchdog_events.pop(instance.instance_id, None)
        if watchdog is not None:
            watchdog.cancel()
        self.instance_manager.on_acquisition_ready(event)
        doom_deadline = self._zone_doom_deadlines.get(instance.zone)
        if doom_deadline is not None:
            # The zone is already under an outage warning: the newcomer gets
            # no individual preemption notice, so doom it on arrival.
            self.instance_manager.mark_doomed(instance.instance_id, doom_deadline)
            self._pending_deadlines[instance.instance_id] = doom_deadline
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
        if self.allowed_zones is not None and zone not in self.allowed_zones:
            return  # Outage in a zone another tenant owns exclusively.
        if phase == "warning":
            deadline: float = payload["start"]
            self._zone_doom_deadlines[zone] = deadline
            for instance in self.instance_manager.on_zone_outage_warning(zone, deadline):
                self._pending_deadlines[instance.instance_id] = deadline
        elif phase == "down":
            self._zone_doom_deadlines.pop(zone, None)
            self.stats.zone_outages += 1
            dead = self.instance_manager.on_zone_outage_down(zone)
            lost_ids = {instance.instance_id for instance in dead}
            for instance in dead:
                self._pending_deadlines.pop(instance.instance_id, None)
            self._teardown_pipelines_using(lost_ids)
            for instance in dead:
                self.meta_context.drop_instance(instance.instance_id)
                self.handle_context_dropped(instance.instance_id)
        self.handle_zone_outage(zone, phase, payload)

    def handle_zone_outage(self, zone: str, phase: str, payload: Dict) -> None:
        """React to a zone-outage phase (subclasses override)."""

    def _on_launch_failure(self, event: Event) -> None:
        """A granted instance died while still launching (fault injection).

        The provider's callback already failed the instance and set
        ``applied`` in the payload (False when a zone outage or preemption
        got there first).  The server forgets the instance and re-requests
        the lost capacity with backoff (only an injector fails launches, so
        retries are on), avoiding the zone that just failed the launch.
        """
        instance: Instance = event.payload["instance"]
        if not self._instance_visible(instance):
            return
        if not event.payload.get("applied", False):
            return
        self.instance_manager.on_launch_failure(event)
        self._pending_deadlines.pop(instance.instance_id, None)
        watchdog = self._watchdog_events.pop(instance.instance_id, None)
        if watchdog is not None:
            watchdog.cancel()
        self._schedule_acquisition_retry(
            1, zone=instance.zone, avoid=(instance.zone,), trigger="launch-failure"
        )

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
        self._run_autoscaler()
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

    # ------------------------------------------------------------------
    # Overload control (admission + shedding)
    # ------------------------------------------------------------------
    def _admission_round_signal(self) -> AdmissionSignal:
        """Snapshot the serving state for one overload-control round.

        Every field is a pure function of the seeded simulation state, so
        the ``"none"`` policy -- which receives this signal and ignores it
        -- cannot perturb the run (the golden digests pin that).
        """
        arrival_rate = self.estimate_arrival_rate()
        throughput = 0.0
        execution_latency = 0.0
        if self.current_config is not None:
            estimate = self.controller.estimate(self.current_config, arrival_rate)
            throughput = estimate.throughput
            execution_latency = estimate.execution_latency
        return AdmissionSignal(
            time=self.simulator.now,
            queue_depth=self.request_queue.pending,
            arrival_rate=arrival_rate,
            serving_throughput=throughput,
            execution_latency=execution_latency,
            slo_latency=self.options.slo_latency,
        )

    def _run_admission_round(self) -> None:
        """Consult the shedding policy once per adaptation round."""
        if self.admission is None:
            return
        signal = self._admission_round_signal()
        self.admission.observe_round(signal)
        shed = self.admission.shed(self.request_queue, signal)
        if shed:
            self.stats.requests_shed += len(shed)

    # ------------------------------------------------------------------
    # Demand-driven fleet sizing (autoscaler)
    # ------------------------------------------------------------------
    def _pipeline_instance_ids(self) -> set:
        """Instances hosting a live pipeline (must not be released)."""
        return {
            instance_id
            for pipeline in self.pipelines
            for instance_id in pipeline.assignment.instance_ids
        }

    def _alive_in_zone(self, name: str) -> int:
        """Alive instances in *name* this system may count (ownership-aware)."""
        if self.instance_owned is None:
            return self.provider.alive_in_zone(name)
        return sum(
            1
            for inst in self.provider.instances_in_zone(name)
            if inst.is_alive and self._instance_visible(inst)
        )

    def _autoscale_signal(self) -> AutoscaleSignal:
        """Snapshot the serving state for one autoscaling round."""
        now = self.simulator.now
        arrival_rate = self.estimate_arrival_rate()
        throughput = 0.0
        if self.current_config is not None:
            throughput = self.controller.estimate(
                self.current_config, arrival_rate
            ).throughput
        in_use = self._pipeline_instance_ids()
        releasable = self.instance_manager.zone_counts()
        for instance in self.instance_manager.stable_instances():
            if instance.instance_id in in_use:
                releasable[instance.zone] -= 1
        launching = sum(
            1
            for inst in self.provider.alive_instances()
            if not inst.is_usable and self._instance_visible(inst)
        )
        zones = tuple(
            ZoneView(
                name=name,
                alive_instances=self._alive_in_zone(name),
                # A zone under an outage warning still *sells* capacity (the
                # provider only zeroes it inside the window), but buying
                # there would burn the acquire budget on instances that die
                # at the outage start -- the evacuation's back-fill must
                # land in surviving zones, so doomed zones read as full.
                capacity_remaining=(
                    0
                    if name in self._zone_doom_deadlines
                    else self.provider.capacity_remaining(name)
                ),
                spot_price=self.provider.spot_price(name, now),
                on_demand_price=self.provider.on_demand_price(name, now),
                releasable_instances=releasable.get(name, 0),
            )
            for name in self._visible_zone_names()
        )
        return AutoscaleSignal(
            time=now,
            arrival_rate=arrival_rate,
            serving_throughput=throughput,
            queue_depth=self.request_queue.pending,
            current_instances=self.instance_manager.available_count(),
            gpus_per_instance=self.gpus_per_instance,
            pending_instances=launching,
            pending_retries=self._pending_retries,
            spot_requests_allowed=self.provider.allow_spot_requests,
            zones=zones,
        )

    def _run_autoscaler(self) -> None:
        """Consult the autoscaler and apply its per-zone acquire/release plan.

        Instances hosting live pipelines are protected from release; the
        parallelization controller then re-optimises the configuration for
        whatever fleet materialises (new instances announce themselves with
        ``ACQUISITION_READY`` events, which already trigger a replan).
        """
        if self.autoscaler is None:
            return
        if self._reconfig_pending:
            # Mid-migration the pipeline set is empty, so the release guard
            # could not protect instances the in-flight placement depends
            # on; defer to the next round (like _plan_reconfiguration does).
            return
        signal = self._autoscale_signal()
        decision = self.autoscaler.plan(signal)
        if decision.is_noop:
            return
        acquired: Dict[str, int] = {}
        shortfall: Dict[str, int] = {}
        for zone in sorted(decision.acquire):
            want = decision.acquire[zone]
            granted = self.instance_manager.alloc(want, zone=zone)
            self._watch_launches(granted)
            if granted:
                acquired[zone] = len(granted)
            missing = want - len(granted)
            if missing > 0:
                shortfall[zone] = missing
        released: Dict[str, int] = {}
        if decision.release:
            in_use = self._pipeline_instance_ids()
            for zone in sorted(decision.release):
                freed = self.instance_manager.free(
                    decision.release[zone], zone=zone, keep_pool=False, avoid=in_use
                )
                if freed:
                    released[zone] = len(freed)
        if not acquired and not released:
            # Nothing could be applied (e.g. every grant failed); undo the
            # cooldown so the phantom action does not suppress real scaling.
            # A backoff retry (when enabled) still chases the unmet demand,
            # and ``pending_retries`` keeps the next round from also
            # re-requesting it.
            if shortfall:
                self._schedule_acquisition_retry(
                    sum(shortfall.values()), zone=None, trigger="autoscale"
                )
            self.autoscaler.cancel_last_action(signal.time)
            return
        if shortfall:
            missing_total = sum(shortfall.values())
            if not self._schedule_acquisition_retry(
                missing_total, zone=None, trigger="autoscale"
            ):
                # No retry machinery to chase it: the demand is terminally
                # unmet and lands in the shortfall counter instead.
                self.stats.allocation_shortfall += missing_total
        self.stats.record_autoscale(
            AutoscaleRecord(
                time=signal.time,
                policy=self.autoscaler.policy.name,
                reason=decision.reason,
                acquired=acquired,
                released=released,
                fleet_before=signal.current_instances,
                desired_instances=decision.desired_instances,
                shortfall=shortfall,
            )
        )

    # ------------------------------------------------------------------
    # Acquisition resilience (retry/backoff + launch watchdog)
    # ------------------------------------------------------------------
    def _current_bandwidth_factor(self) -> float:
        """Bandwidth divisor at the current instant (network degradation hook)."""
        return self.fault_injector.bandwidth_factor(self.simulator.now)

    def _schedule_acquisition_retry(
        self,
        count: int,
        zone: Optional[str],
        avoid: Sequence[str] = (),
        attempt: int = 0,
        trigger: str = "refusal",
    ) -> bool:
        """Schedule a backoff retry for *count* refused/failed acquisitions.

        Returns True when a retry was scheduled; False without a fault
        injector (retries run exactly when one is installed) or when the
        attempt budget is exhausted (the caller then reports the demand as
        terminally unmet).  ``zone`` scopes the jitter stream (and names the
        zone that refused, for diagnostics); the retry itself spreads over
        every non-avoided zone so capacity recovers wherever the cloud still
        sells it.
        """
        if self.fault_injector is None or count <= 0:
            return False
        if attempt >= RETRY_POLICY.max_attempts:
            return False
        jitter = self.fault_injector.retry_jitter(zone or "any")
        delay = RETRY_POLICY.delay(attempt, jitter)
        self._pending_retries += count
        self.simulator.schedule_after(
            delay,
            EventType.GENERIC,
            payload={
                "server_action": "acquisition_retry",
                "count": count,
                "zone": zone,
                "avoid": tuple(avoid),
                "attempt": attempt,
                "trigger": trigger,
            },
            callback=self._on_acquisition_retry,
        )
        return True

    def _on_acquisition_retry(self, event: Event) -> None:
        """Fire one backoff retry: re-request, then re-arm or give up."""
        payload = event.payload
        count: int = payload["count"]
        self._pending_retries -= count
        self.stats.acquisition_retries += 1
        avoid = set(payload["avoid"]) | set(self._zone_doom_deadlines)
        granted = self.instance_manager.alloc(count, avoid_zones=tuple(avoid))
        self._watch_launches(granted)
        missing = count - len(granted)
        if missing <= 0:
            return
        if not self._schedule_acquisition_retry(
            missing,
            zone=payload["zone"],
            avoid=payload["avoid"],
            attempt=payload["attempt"] + 1,
            trigger=payload["trigger"],
        ):
            # Bounded backoff exhausted: report instead of retrying forever.
            self.stats.allocation_shortfall += missing

    def _watch_launches(self, granted: Sequence[Instance]) -> None:
        """Arm the launch watchdog for every newly granted instance.

        Armed exactly when a fault injector is installed, like the retries.
        """
        if self.fault_injector is None:
            return
        timeout = LAUNCH_WATCHDOG_MULTIPLIER * self.provider.instance_type.startup_delay
        for instance in granted:
            event = self.simulator.schedule_after(
                timeout,
                EventType.GENERIC,
                payload={"server_action": "launch_watchdog", "instance": instance},
                callback=self._on_launch_watchdog,
            )
            self._watchdog_events[instance.instance_id] = event

    def _on_launch_watchdog(self, event: Event) -> None:
        """Abandon a launch stuck past the watchdog timeout and re-request.

        Straggler launches whose stretched startup delay exceeds the
        watchdog bound are released (their ready announcement is cancelled
        by the provider) and one replacement is requested in the surviving
        zones, avoiding the zone that stalled.
        """
        instance: Instance = event.payload["instance"]
        self._watchdog_events.pop(instance.instance_id, None)
        if not instance.is_launching:
            return  # Became ready, failed, or died with its zone: nothing to do.
        self.provider.release(instance)
        self.stats.acquisition_retries += 1
        avoid = set(self._zone_doom_deadlines)
        avoid.add(instance.zone)
        granted = self.instance_manager.alloc(1, avoid_zones=tuple(avoid))
        self._watch_launches(granted)
        if not granted and not self._schedule_acquisition_retry(
            1, zone=instance.zone, avoid=(instance.zone,), trigger="watchdog"
        ):
            self.stats.allocation_shortfall += 1

    def _on_batch_completion(self, event: Event) -> None:
        pipeline, batch = event.payload  # type: InferencePipeline, Batch
        if self.instance_owned is not None and (
            self._completion_events.get(id(pipeline)) is not event
        ):
            # Another tenant's pipeline (or a stale event): only the system
            # that scheduled the completion may complete it.  Off in
            # single-tenant mode, where the ``current_batch`` check below is
            # the historical (and equivalent) stale-event filter.
            return
        if pipeline.current_batch is not batch:
            return  # The batch was interrupted before completing.
        completed = pipeline.complete_batch(event.time)
        self._completion_events.pop(id(pipeline), None)
        self.stats.tokens_generated += completed.output_tokens * completed.size
        for request in completed.requests:
            self.stats.record_completion(request)
        self._clear_cache_context(pipeline)
        self._dispatch()

    def _on_reconfiguration(self, event: Event) -> None:
        if event.payload.get("system") not in (None, self):
            return  # Another tenant's reconfiguration on the shared simulator.
        self._execute_reconfiguration_event(event)

    def _on_migration_complete(self, event: Event) -> None:
        if event.payload.get("system") not in (None, self):
            return  # Another tenant's migration on the shared simulator.
        self._finish_reconfiguration(event)

    # ------------------------------------------------------------------
    # Arrival-rate estimation
    # ------------------------------------------------------------------
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
    # Device / placement helpers
    # ------------------------------------------------------------------
    def _available_devices(self) -> List[DeviceId]:
        # Zone-major ordering keeps each pipeline's contiguous position block
        # inside one zone whenever the fleet allows it.
        devices: List[DeviceId] = []
        for instance in sorted(
            self.instance_manager.stable_instances(),
            key=lambda inst: (inst.zone, inst.instance_id),
        ):
            devices.extend(instance.gpu_ids)
        return devices

    def _default_placement(
        self, config: ParallelConfig, devices: Sequence[DeviceId]
    ) -> Dict[DeviceId, TopologyPosition]:
        positions = mesh_positions(
            config.data_degree, config.pipeline_degree, config.tensor_degree
        )
        if len(devices) < len(positions):
            raise ValueError(
                f"not enough devices ({len(devices)}) for configuration {config}"
            )
        return {device: position for device, position in zip(devices, positions)}

    def _install_model_contexts(
        self, config: ParallelConfig, placement: Dict[DeviceId, TopologyPosition]
    ) -> None:
        for device_id, position in placement.items():
            self.meta_context.daemon(device_id).install_model_context(
                config.pipeline_degree, config.tensor_degree, position
            )

    def _build_pipelines(
        self, config: ParallelConfig, placement: Dict[DeviceId, TopologyPosition]
    ) -> None:
        assignments: Dict[int, PipelineAssignment] = {}
        for data_index in range(config.data_degree):
            assignments[data_index] = PipelineAssignment(
                pipeline_index=data_index,
                pipeline_degree=config.pipeline_degree,
                tensor_degree=config.tensor_degree,
            )
        for device_id, position in placement.items():
            assignment = assignments.get(position.data_index)
            if assignment is not None:
                assignment.devices[position] = device_id
        self.pipelines = [
            InferencePipeline(assignments[d], self.latency_model, config.batch_size)
            for d in range(config.data_degree)
        ]
        self.request_queue.max_batch_size = config.batch_size

    def _clear_cache_context(self, pipeline: InferencePipeline) -> None:
        for device_id in pipeline.assignment.device_ids:
            self.meta_context.daemon(device_id).clear_cache_context()

    def _store_cache_context(self, pipeline: InferencePipeline, batch: Batch) -> None:
        """Record the interrupted batch's KV cache in the pipeline's daemons."""
        if self.current_config is None:
            return
        for position, device_id in pipeline.assignment.devices.items():
            self.meta_context.daemon(device_id).install_cache_context(
                self.current_config.pipeline_degree,
                self.current_config.tensor_degree,
                position,
                batch.size,
                DEFAULT_INPUT_LENGTH + batch.committed_tokens,
                batch.batch_id,
            )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _serving_available(self) -> bool:
        return bool(self.pipelines) and self.simulator.now >= self._migration_until

    def _dispatch(self) -> None:
        if not self._serving_available():
            return
        for pipeline in self.pipelines:
            if pipeline.is_busy:
                continue
            batch, resume = self._next_batch_for(pipeline)
            if batch is None:
                break
            self._start_batch_on(pipeline, batch, resume)

    def _next_batch_for(self, pipeline: InferencePipeline) -> Tuple[Optional[Batch], bool]:
        if self._resume_batches:
            batch = self._resume_batches.popleft()
            max_size = self.current_config.batch_size if self.current_config else batch.size
            if batch.size > max_size:
                # The new configuration cannot hold the whole batch: drop its
                # cache and requeue the member requests.
                self._reroute_batch(batch)
                return self._next_batch_for(pipeline)
            return batch, batch.cache_preserved and batch.committed_tokens > 0
        batch = self.request_queue.next_batch(
            self.current_config.batch_size if self.current_config else None
        )
        if batch is None:
            return None, False
        return batch, False

    def _start_batch_on(self, pipeline: InferencePipeline, batch: Batch, resume: bool) -> None:
        finish_time = pipeline.start_batch(batch, self.simulator.now, resume=resume)
        event = self.simulator.schedule_at(
            finish_time,
            EventType.BATCH_COMPLETION,
            payload=(pipeline, batch),
        )
        self._completion_events[id(pipeline)] = event

    def _reroute_batch(self, batch: Batch) -> None:
        """Drop an interrupted batch's cache and put its requests back in line.

        The requests lose their decoding progress but are never lost -- this
        is the re-queue half of the request-conservation invariant (see
        :meth:`unfinished_request_count`).
        """
        batch.drop_cache()
        self.request_queue.enqueue_front(batch.requests)
        self.stats.rerouted_batches += 1
        self.stats.requests_rerouted += batch.size

    def _teardown_pipelines_using(self, instance_ids: set) -> List[InferencePipeline]:
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
            event = self._completion_events.pop(id(pipeline), None)
            if event is not None:
                event.cancel()
            batch = pipeline.interrupt(now, preserve_cache=False)
            if batch is not None:
                self._reroute_batch(batch)
        torn_down = set(map(id, affected))
        self.pipelines = [p for p in self.pipelines if id(p) not in torn_down]
        return affected

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
        inflight = sum(
            pipeline.current_batch.size
            for pipeline in self.pipelines
            if pipeline.current_batch is not None
        )
        resumable = sum(batch.size for batch in self._resume_batches)
        unarrived = self._submitted_requests - self._arrived_requests
        return self.request_queue.pending + inflight + resumable + unarrived

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

    def _interrupt_all_pipelines(self, preserve_cache: bool) -> List[Batch]:
        """Interrupt every busy pipeline, returning the interrupted batches."""
        interrupted: List[Batch] = []
        now = self.simulator.now
        for pipeline in self.pipelines:
            event = self._completion_events.pop(id(pipeline), None)
            if event is not None:
                event.cancel()
            if not pipeline.is_busy:
                continue
            batch = pipeline.interrupt(now, preserve_cache=preserve_cache)
            if batch is None:
                continue
            self.stats.interrupted_batches += 1
            if preserve_cache and batch.committed_tokens > 0:
                self._store_cache_context(pipeline, batch)
                batch.cache_preserved = True
            else:
                batch.cache_preserved = False
            interrupted.append(batch)
        return interrupted

    def _halt_serving(self, preserve_cache: bool) -> None:
        """Stop serving entirely (no feasible configuration remains)."""
        interrupted = self._interrupt_all_pipelines(preserve_cache)
        for batch in interrupted:
            if preserve_cache and batch.cache_preserved:
                self._resume_batches.append(batch)
            else:
                batch.drop_cache()
                self.request_queue.enqueue_front(batch.requests)
                # Not counted in ``rerouted_batches`` (pre-outage golden
                # digests pin that counter's historical semantics), but the
                # requests did lose their progress.
                self.stats.requests_rerouted += batch.size
        self.pipelines = []
        self.current_config = None

    # ------------------------------------------------------------------
    # Reconfiguration plumbing shared by SpotServe and the baselines
    # ------------------------------------------------------------------
    def _schedule_reconfiguration(
        self,
        new_config: ParallelConfig,
        placement: Dict[DeviceId, TopologyPosition],
        stall_time: float,
        stop_time: float,
        reason: str,
        preserve_cache: bool,
        migrated_bytes: float = 0.0,
        reused_bytes: float = 0.0,
        objective: str = "",
        spill_restores: Optional[Dict[str, float]] = None,
    ) -> None:
        if self._reconfig_pending:
            self._replan_after_migration = True
            return
        self._reconfig_pending = True
        self.simulator.schedule_at(
            max(stop_time, self.simulator.now),
            EventType.RECONFIGURATION,
            payload={
                "new_config": new_config,
                "placement": placement,
                "stall_time": stall_time,
                "reason": reason,
                "preserve_cache": preserve_cache,
                "migrated_bytes": migrated_bytes,
                "reused_bytes": reused_bytes,
                "objective": objective,
                "spill_restores": spill_restores,
                "system": self,
            },
        )

    def _execute_reconfiguration_event(self, event: Event) -> None:
        payload = event.payload
        new_config: ParallelConfig = payload["new_config"]
        preserve_cache: bool = payload["preserve_cache"]
        stall_time: float = payload["stall_time"]
        now = self.simulator.now

        interrupted = self._interrupt_all_pipelines(preserve_cache)
        # Keep the batches with the most decoding progress if the new
        # configuration holds fewer concurrent requests (Section 3.3).
        capacity = new_config.data_degree
        kept, discarded = DeviceMapper.select_batches_to_keep(interrupted, capacity)
        for batch in kept:
            self._resume_batches.append(batch)
        for batch in discarded:
            self._reroute_batch(batch)

        old_config = self.current_config
        self.pipelines = []
        self._migration_until = now + stall_time
        self.stats.record_reconfiguration(
            ReconfigurationRecord(
                time=now,
                old_config=old_config,
                new_config=new_config,
                reason=payload["reason"],
                stall_time=stall_time,
                migrated_bytes=payload["migrated_bytes"],
                reused_bytes=payload["reused_bytes"],
                objective=payload["objective"],
            )
        )
        spill_restores = payload.get("spill_restores")
        if spill_restores:
            # The sources have uploaded their suffix to the offload tier by
            # the time the reconfiguration fires; the bytes now sit in the
            # tier awaiting the destination-side restore.
            self.stats.bytes_spilled += sum(spill_restores.values())
            self._pending_spill = dict(spill_restores)
        self.simulator.schedule_at(
            self._migration_until,
            EventType.MIGRATION_COMPLETE,
            payload={
                "new_config": new_config,
                "placement": payload["placement"],
                "spill_restores": spill_restores,
                "system": self,
            },
        )

    def _finish_reconfiguration(self, event: Event) -> None:
        new_config: ParallelConfig = event.payload["new_config"]
        placement: Dict[DeviceId, TopologyPosition] = event.payload["placement"]
        live_devices = set(self._available_devices())
        placement = {
            device: position
            for device, position in placement.items()
            if device in live_devices
        }
        spill_restores = event.payload.get("spill_restores")
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
        self._install_model_contexts(new_config, placement)
        self._build_pipelines(new_config, placement)
        self.current_config = new_config
        for instance in self.instance_manager.held_instances():
            self._initialized_instances.add(instance.instance_id)
        self._reconfig_pending = False
        self._dispatch()
        if self._replan_after_migration:
            self._replan_after_migration = False
            self.handle_replan()

    def handle_replan(self) -> None:
        """Re-evaluate the deployment after a deferred trigger (subclasses override)."""
        self.handle_workload_check()


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
        self.interruption_arranger = InterruptionArranger(self.latency_model)
        self._downscale_votes = 0
        #: Bandwidth-degradation factor the planner's memoised plans were
        #: computed under; a change invalidates the whole-plan memo (its
        #: keys do not encode the network state).  Constant 1.0 without a
        #: fault injector, so the memo is never invalidated off-path.
        self._last_bandwidth_factor = 1.0
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
        affected = self._teardown_pipelines_using({instance.instance_id})
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
        if self._teardown_pipelines_using({instance.instance_id}):
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
        # Reclaim deadlines are not passed in: _prepare_transition reads the
        # merged ``_pending_deadlines`` (kept current by the notice and
        # zone-outage bookkeeping), so every trigger budgets against the
        # earliest real deadline.
        if self._reconfig_pending:
            self._replan_after_migration = True
            return
        now = self.simulator.now
        available = self.instance_manager.available_count()
        arrival_rate = self.estimate_arrival_rate()

        if available <= 0:
            self._halt_serving(preserve_cache=self.options.stateful_recovery)
            return

        if self.options.adaptive_controller:
            decision = self._propose()
        else:
            decision = self._static_decision(available, arrival_rate)
        if decision is None:
            self._halt_serving(preserve_cache=self.options.stateful_recovery)
            return

        # Deploy the best configuration that fits the instances usable *now*.
        target = decision
        if decision.config.num_instances(self.gpus_per_instance) > available:
            fallback = (
                self.controller.propose(available, arrival_rate)
                if self.options.adaptive_controller
                else self._static_decision(available, arrival_rate)
            )
            if fallback is None:
                self._halt_serving(preserve_cache=self.options.stateful_recovery)
                return
            target = fallback

        target = self._apply_sticky_policy(target, reason, available, arrival_rate)

        # Ask the instance manager to grow / shrink the fleet (Algorithm 1,
        # lines 6-10).  Growth follows the optimizer's ideal configuration but
        # is capped by the on-demand budget (counting instances that are still
        # launching, so repeated triggers do not over-allocate); shrinking
        # follows what is actually being deployed so spare spot capacity is
        # not released while it is still useful.  When an autoscaler is
        # active it owns fleet sizing, so Algorithm 1 only picks the
        # configuration for the fleet at hand.
        if self.autoscaler is not None:
            pass
        elif decision.instance_delta > 0:
            budget = decision.instance_delta
            if self.options.allow_on_demand:
                budget = min(
                    budget,
                    max(
                        MAX_ON_DEMAND_EXTRA - self.instance_manager.on_demand_alive(),
                        0,
                    ),
                )
            if budget > 0:
                # Never buy replacement capacity in a zone that is under an
                # outage warning -- every grant there dies at the outage
                # start (the autoscaler path masks such zones the same way).
                granted = self.instance_manager.alloc(
                    budget, avoid_zones=tuple(self._zone_doom_deadlines)
                )
                self._watch_launches(granted)
                missing = budget - len(granted)
                if missing > 0:
                    # Chase refused capacity with backoff when retries are
                    # on; a plain spot-market "no" (the by-design fault-free
                    # refusal) is not counted as shortfall here -- Algorithm
                    # 1 re-requests at the next trigger anyway.
                    self._schedule_acquisition_retry(
                        missing, zone=None, trigger="growth"
                    )
        else:
            release = available - target.config.num_instances(self.gpus_per_instance)
            if release > 0:
                self.instance_manager.free(release)

        new_config = target.config
        if self._can_skip_reconfiguration(new_config, reason):
            return

        placement, stall_time, stop_time, migrated, reused, preserve, spills = (
            self._prepare_transition(new_config, reason)
        )
        self._schedule_reconfiguration(
            new_config=new_config,
            placement=placement,
            stall_time=stall_time,
            stop_time=stop_time,
            reason=reason,
            preserve_cache=preserve,
            migrated_bytes=migrated,
            reused_bytes=reused,
            objective=target.objective,
            spill_restores=spills,
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
        if new_config != self.current_config or not self.pipelines:
            return False
        doomed = {inst.instance_id for inst in self.instance_manager.doomed_instances()}
        lost = {
            inst_id
            for inst_id in self._pending_deadlines
        }
        unavailable = doomed | lost
        for pipeline in self.pipelines:
            for instance_id in pipeline.assignment.instance_ids:
                if instance_id in unavailable:
                    return False
            if not pipeline.assignment.is_fully_assigned:
                return False
        return True

    def _prepare_transition(
        self, new_config: ParallelConfig, reason: str
    ) -> Tuple[
        Dict[DeviceId, TopologyPosition],
        float,
        float,
        float,
        float,
        bool,
        Optional[Dict[str, float]],
    ]:
        """Compute placement, stall, stop time and migration volume for a switch.

        The last element is the tiered-spill restore map (offload bytes per
        destination instance) when the chosen plan spills through the
        offload tier, else ``None``.
        """
        now = self.simulator.now
        if self.fault_injector is not None:
            # The whole-plan memo keys on context/mapping inputs only, not
            # on the network state: plans cached under a different
            # degradation factor would report stale migration times.
            factor = self.fault_injector.bandwidth_factor(now)
            if factor != self._last_bandwidth_factor:
                self.migration_planner.invalidate_plan_memo()
                self._last_bandwidth_factor = factor
        devices = self._available_devices()
        inheritance = self._pipeline_inheritance(new_config)
        cache_info = self._cache_requirements(new_config, inheritance)
        mapping = self.device_mapper.map_devices(
            self.meta_context,
            devices,
            new_config,
            pipeline_inheritance=inheritance,
            cached_tokens_per_pipeline={
                new_d: (batch_size, tokens)
                for new_d, (_, batch_size, tokens) in cache_info.items()
            },
        )
        plan = self.migration_planner.plan(self.meta_context, mapping, cache_info)

        fresh_instances = {
            device[0]
            for device in mapping.placement
            if device[0] not in self._initialized_instances
        }
        launch_overhead = ENGINE_LAUNCH_TIME if fresh_instances else 0.0

        stop_time = now
        preserve = self.options.stateful_recovery
        effective_deadline = self.interruption_arranger.merge_overlapping_deadlines(
            list(self._pending_deadlines.values())
        )
        if reason in (
            "preemption",
            "preemption-final",
            "zone-outage",
            "zone-outage-final",
            "early-preemption",
        ):
            if (
                (
                    self.fault_injector is not None
                    or self.network.offload_tier is not None
                )
                and preserve
                and effective_deadline is not None
                and now + plan.migration_time > effective_deadline
            ):
                # The (possibly degraded) network can no longer complete
                # the direct migration inside the grace window.  With an
                # offload tier configured, first try to keep cache
                # preservation alive by spilling the plan's tail to the
                # tier (sources upload inside the window, destinations
                # restore afterwards).
                tiered = self.migration_planner.derive_tiered_plan(
                    plan, effective_deadline - now
                )
                if tiered is not None:
                    plan = tiered
                else:
                    # Graceful degradation: no tier, or even the all-spill
                    # plan misses the deadline.  Arranging cache
                    # preservation against that deadline would schedule
                    # work the reclaim is going to cut in half, so fall
                    # back to rerouting: interrupt without preserving
                    # caches (requests re-queue and recompute) and migrate
                    # only what the model-context plan needs.  The weight
                    # moves the plan still contains are unavoidable either
                    # way and keep their stall.
                    if self.network.offload_tier is not None:
                        self.stats.spill_fallbacks += 1
                    self.stats.migration_fallbacks += 1
                    preserve = False
                    if cache_info:
                        plan = self.migration_planner.plan(
                            self.meta_context, mapping, {}
                        )
            # The engine launch of any fresh instance cannot be hidden behind
            # the grace period, so it adds to the stall.
            stall_time = max(plan.migration_time, launch_overhead)
            if preserve and effective_deadline is not None:
                stop_time = self._jit_stop_time(effective_deadline, plan)
        else:
            # Acquisition / workload changes are not under grace-period
            # pressure: keep serving while fresh engines launch (the JIT
            # acquisition arrangement), then pay only the migration stall.
            stop_time = now + launch_overhead
            stall_time = plan.migration_time

        spill_restores: Optional[Dict[str, float]] = None
        if plan.tier == "offload" and plan.spilled_bytes > 0:
            spill_restores = {}
            for step in plan.steps:
                for transfer in step.transfers:
                    if (
                        transfer.tier == "offload"
                        and not transfer.is_noop
                        and transfer.size_bytes > 0
                    ):
                        dst = transfer.dst[0]
                        spill_restores[dst] = (
                            spill_restores.get(dst, 0.0) + transfer.size_bytes
                        )

        return (
            mapping.placement,
            stall_time,
            stop_time,
            plan.total_bytes,
            mapping.reused_bytes,
            preserve,
            spill_restores,
        )

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

    def _jit_stop_time(self, deadline: float, plan: MigrationPlan) -> float:
        """Latest stop time that still leaves room for the migration itself.

        Budgets ``plan.window_time`` against the deadline: for direct plans
        that is exactly ``migration_time`` (the pre-tiering arithmetic);
        for tiered plans only the direct prefix plus the spill must finish
        before the sources disappear -- the destination-side restore runs
        after the reclaim.
        """
        now = self.simulator.now
        stop_time = now
        for pipeline in self.pipelines:
            if not pipeline.is_busy or self.current_config is None:
                continue
            arrangement = self.interruption_arranger.arrange_preemption(
                pipeline.current_batch,
                self.current_config,
                now,
                deadline,
                plan.window_time,
            )
            stop_time = max(stop_time, arrangement.stop_time)
        return min(stop_time, max(deadline - plan.window_time, now))

    def _pipeline_inheritance(self, new_config: ParallelConfig) -> Dict[int, int]:
        """Old data-parallel index -> new data-parallel index (identity prefix)."""
        if self.current_config is None:
            return {}
        shared = min(self.current_config.data_degree, new_config.data_degree)
        return {d: d for d in range(shared)}

    def _cache_requirements(
        self, new_config: ParallelConfig, inheritance: Dict[int, int]
    ) -> Dict[int, Tuple[int, int, int]]:
        """New data index -> (old data index, batch size, cached tokens)."""
        requirements: Dict[int, Tuple[int, int, int]] = {}
        if not self.options.stateful_recovery:
            return requirements
        for pipeline in self.pipelines:
            batch = pipeline.current_batch
            if batch is None or batch.committed_tokens <= 0:
                continue
            old_index = pipeline.pipeline_index
            new_index = inheritance.get(old_index)
            if new_index is None:
                continue
            requirements[new_index] = (
                old_index,
                batch.size,
                DEFAULT_INPUT_LENGTH + batch.committed_tokens,
            )
        return requirements
