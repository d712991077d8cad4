"""Reconfiguration preparation: SpotServe's meta-context manager side.

When a trigger (preemption notice, acquisition, zone outage, workload
change) picks a new parallel configuration, :class:`TransitionPlanner`
works out how to get there: the device mapper places the new mesh on the
stable fleet maximising reused context (Section 3.3), the migration planner
orders the transfers under the buffer bound (Algorithm 2), and the
interruption arranger budgets when serving must stop so the migration
still beats any pending grace deadline (Section 4.2).  The result is one
frozen :class:`Transition`, which the serving system carries through its
``RECONFIGURATION`` and ``MIGRATION_COMPLETE`` events.

The planner reads the serving system's mapper, planner, meta-context,
fleet and deployment at call time, so outside instrumentation that wraps
them after construction sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from ..engine.context import DeviceId
from ..engine.placement import TopologyPosition, mesh_positions
from ..llm.costmodel import DEFAULT_INPUT_LENGTH
from .config import ParallelConfig
from .interruption import InterruptionArranger
from .migration import MigrationPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .server import SpotServeSystem

#: Engine process launch time on an instance that never served before.
ENGINE_LAUNCH_TIME = 30.0


@dataclass(frozen=True)
class Transition:
    """One prepared switch to a new deployment."""

    config: ParallelConfig
    placement: Dict[DeviceId, TopologyPosition]
    #: Seconds serving stays down once the switch fires.
    stall_time: float
    #: When serving stops (the JIT arrangement's latest safe instant).
    stop_time: float
    reason: str
    #: Interrupted batches keep their KV cache (stateful recovery).
    preserve_cache: bool
    migrated_bytes: float = 0.0
    reused_bytes: float = 0.0
    objective: str = ""
    #: Offload-tier bytes each destination instance restores after the
    #: switch (tiered plans only, else ``None``).
    spill_restores: Optional[Dict[str, float]] = None


def default_placement(
    config: ParallelConfig, devices: Sequence[DeviceId]
) -> Dict[DeviceId, TopologyPosition]:
    """*config*'s mesh positions filled with *devices* in order (no context reuse)."""
    positions = mesh_positions(
        config.data_degree, config.pipeline_degree, config.tensor_degree
    )
    if len(devices) < len(positions):
        raise ValueError(
            f"not enough devices ({len(devices)}) for configuration {config}"
        )
    return dict(zip(devices, positions))


class TransitionPlanner:
    """Turns a target configuration into a :class:`Transition`."""

    def __init__(self, system: "SpotServeSystem") -> None:
        self.system = system
        self.arranger = InterruptionArranger(system.latency_model)
        #: Bandwidth-degradation factor the planner's memoised plans were
        #: computed under; a change invalidates the whole-plan memo (its
        #: keys do not encode the network state).  Constant 1.0 without a
        #: fault injector, so the memo is never invalidated off-path.
        self._bandwidth_factor = 1.0

    def prepare(self, config: ParallelConfig, reason: str, objective: str) -> Transition:
        """Compute placement, stall, stop time and migration volume for a switch."""
        system = self.system
        planner = system.migration_planner
        meta_context = system.meta_context
        now = system.simulator.now
        injector = system.fault_injector
        if injector is not None:
            # The whole-plan memo keys on context/mapping inputs only, not
            # on the network state: plans cached under a different
            # degradation factor would report stale migration times.
            factor = injector.bandwidth_factor(now)
            if factor != self._bandwidth_factor:
                planner.invalidate_plan_memo()
                self._bandwidth_factor = factor
        devices = system.instance_manager.stable_devices()
        inheritance = self._pipeline_inheritance(config)
        cache_info = self._cache_requirements(inheritance)
        mapping = system.device_mapper.map_devices(
            meta_context,
            devices,
            config,
            pipeline_inheritance=inheritance,
            cached_tokens_per_pipeline={
                new_d: (batch_size, tokens)
                for new_d, (_, batch_size, tokens) in cache_info.items()
            },
        )
        plan = planner.plan(meta_context, mapping, cache_info)

        launched = system.dataplane.launched
        fresh = any(device[0] not in launched for device in mapping.placement)
        launch_overhead = ENGINE_LAUNCH_TIME if fresh else 0.0

        stop_time = now
        preserve = system.options.stateful_recovery
        deadline = self.arranger.merge_overlapping_deadlines(
            list(system.instance_manager.grace_deadlines.values())
        )
        if reason in (
            "preemption",
            "preemption-final",
            "zone-outage",
            "zone-outage-final",
            "early-preemption",
        ):
            if (
                (injector is not None or system.network.offload_tier is not None)
                and preserve
                and deadline is not None
                and now + plan.migration_time > deadline
            ):
                # The (possibly degraded) network can no longer complete
                # the direct migration inside the grace window.  With an
                # offload tier configured, first try to keep cache
                # preservation alive by spilling the plan's tail to the
                # tier (sources upload inside the window, destinations
                # restore afterwards).
                tiered = planner.derive_tiered_plan(plan, deadline - now)
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
                    if system.network.offload_tier is not None:
                        system.stats.spill_fallbacks += 1
                    system.stats.migration_fallbacks += 1
                    preserve = False
                    if cache_info:
                        plan = planner.plan(meta_context, mapping, {})
            # The engine launch of any fresh instance cannot be hidden behind
            # the grace period, so it adds to the stall.
            stall_time = max(plan.migration_time, launch_overhead)
            if preserve and deadline is not None:
                stop_time = self._jit_stop_time(deadline, plan)
        else:
            # Acquisition / workload changes are not under grace-period
            # pressure: keep serving while fresh engines launch (the JIT
            # acquisition arrangement), then pay only the migration stall.
            stop_time = now + launch_overhead
            stall_time = plan.migration_time

        return Transition(
            config=config,
            placement=mapping.placement,
            stall_time=stall_time,
            stop_time=stop_time,
            reason=reason,
            preserve_cache=preserve,
            migrated_bytes=plan.total_bytes,
            reused_bytes=mapping.reused_bytes,
            objective=objective,
            spill_restores=self._spill_restores(plan),
        )

    @staticmethod
    def _spill_restores(plan: MigrationPlan) -> Optional[Dict[str, float]]:
        """Offload bytes per destination instance of a tiered *plan*."""
        if plan.tier != "offload" or plan.spilled_bytes <= 0:
            return None
        restores: Dict[str, float] = {}
        for step in plan.steps:
            for transfer in step.transfers:
                if transfer.tier == "offload" and not transfer.is_noop and transfer.size_bytes > 0:
                    dst = transfer.dst[0]
                    restores[dst] = restores.get(dst, 0.0) + transfer.size_bytes
        return restores

    def _jit_stop_time(self, deadline: float, plan: MigrationPlan) -> float:
        """Latest stop time that still leaves room for the migration itself.

        Budgets ``plan.window_time`` against the deadline: for direct plans
        that is exactly ``migration_time`` (the pre-tiering arithmetic);
        for tiered plans only the direct prefix plus the spill must finish
        before the sources disappear -- the destination-side restore runs
        after the reclaim.
        """
        system = self.system
        now = system.simulator.now
        config = system.current_config
        stop_time = now
        for pipeline in system.dataplane.pipelines:
            if not pipeline.is_busy or config is None:
                continue
            arrangement = self.arranger.arrange_preemption(
                pipeline.current_batch, config, now, deadline, plan.window_time
            )
            stop_time = max(stop_time, arrangement.stop_time)
        return min(stop_time, max(deadline - plan.window_time, now))

    def _pipeline_inheritance(self, config: ParallelConfig) -> Dict[int, int]:
        """Old data-parallel index -> new data-parallel index (identity prefix)."""
        current = self.system.current_config
        if current is None:
            return {}
        return {d: d for d in range(min(current.data_degree, config.data_degree))}

    def _cache_requirements(
        self, inheritance: Dict[int, int]
    ) -> Dict[int, Tuple[int, int, int]]:
        """New data index -> (old data index, batch size, cached tokens)."""
        requirements: Dict[int, Tuple[int, int, int]] = {}
        if not self.system.options.stateful_recovery:
            return requirements
        for pipeline in self.system.dataplane.pipelines:
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
