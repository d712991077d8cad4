"""Request-rerouting baseline.

This baseline generalises spot-serving systems built for small models
(MArk/Cocktail style): the model-parallel shape ``(P, M, B)`` is fixed to the
optimal configuration at full availability and never changes; only the number
of inference pipelines adapts.  When a preemption breaks a pipeline, its
in-flight requests are rerouted to the surviving pipelines and recomputed
from scratch; the pipeline's surviving instances sit idle until enough
instances are available to rebuild a pipeline, which then has to reload its
model parameters from persistent storage.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from ..cloud.instance import Instance
from ..core.config import ParallelConfig
from ..core.migration import MigrationPlanner
from ..core.reconfiguration import ENGINE_LAUNCH_TIME
from ..core.server import ServingSystemBase
from ..core.stats import ReconfigurationRecord
from ..engine.context import DeviceId
from ..sim.events import Event, EventType


class RequestReroutingSystem(ServingSystemBase):
    """Fixed model-parallel shape; whole pipelines are dropped / re-added."""

    name = "Rerouting"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.restart_planner = MigrationPlanner(self.model, self.network)
        self._fixed_shape: Optional[ParallelConfig] = None
        self._pipeline_counter = itertools.count()
        self._reserved_instances: set = set()

    # ------------------------------------------------------------------
    # Initial deployment
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        super().initialize()
        if self.current_config is not None:
            self._fixed_shape = self.current_config
            # Re-index pipelines with the counter so later additions are unique.
            for pipeline in self.dataplane.pipelines:
                next(self._pipeline_counter)

    @property
    def fixed_shape(self) -> Optional[ParallelConfig]:
        """The frozen ``(P, M, B)`` shape (D reflects the initial deployment)."""
        return self._fixed_shape

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------
    def handle_preemption_notice(self, instance: Instance, deadline: float) -> None:
        # Reactive baseline: nothing happens until the instance disappears.
        return

    def handle_preemption_final(self, instance: Instance) -> None:
        affected = self.dataplane.teardown({instance.instance_id})
        if affected:
            self._record_scaling("preemption-final", stall_time=0.0)
            self.dataplane.dispatch()
        # Note: the surviving instances of a broken pipeline stay idle until a
        # *new* instance is allocated (Section 2.3); they are not re-grouped
        # among themselves, which is exactly what makes the rerouting baseline
        # lose serving capacity after preemptions.

    def handle_zone_outage(self, zone: str, phase: str, payload: dict) -> None:
        # The shared bookkeeping already tore down every pipeline the outage
        # broke; the rerouting baseline just records the capacity loss and
        # keeps serving on the surviving pipelines (it never re-groups).
        if phase == "down":
            self._record_scaling("zone-outage", stall_time=0.0)
            self.dataplane.dispatch()

    def handle_acquisition_ready(self, instance: Instance) -> None:
        self._try_add_pipelines()

    def handle_workload_check(self) -> None:
        # The fixed-shape baseline never re-optimises for workload changes.
        return

    # ------------------------------------------------------------------
    # Pipeline management
    # ------------------------------------------------------------------
    def _instances_per_pipeline(self) -> int:
        shape = self._fixed_shape
        if shape is None:
            return 1
        return -(-shape.gpus_per_pipeline // self.gpus_per_instance)

    def _idle_instances(self) -> List[Instance]:
        used = self._reserved_instances | self.dataplane.instance_ids()
        return [
            instance
            for instance in self.instance_manager.stable_instances()
            if instance.instance_id not in used
        ]

    def _try_add_pipelines(self) -> None:
        if self._fixed_shape is None:
            return
        needed = self._instances_per_pipeline()
        idle = self._idle_instances()
        while len(idle) >= needed:
            chosen, idle = idle[:needed], idle[needed:]
            self._schedule_pipeline_addition(chosen)

    def _schedule_pipeline_addition(self, instances: Sequence[Instance]) -> None:
        """Bring up one pipeline on *instances* after the weight-load delay."""
        assert self._fixed_shape is not None
        shape = self._fixed_shape
        single = ParallelConfig(
            1, shape.pipeline_degree, shape.tensor_degree, shape.batch_size
        )
        load_plan = self.restart_planner.estimate_restart_plan(single)
        delay = load_plan.stall_time + ENGINE_LAUNCH_TIME
        instance_ids = [instance.instance_id for instance in instances]
        self._reserved_instances.update(instance_ids)
        self.simulator.schedule_after(
            delay,
            EventType.GENERIC,
            payload={"instance_ids": instance_ids},
            callback=self._on_pipeline_ready,
        )

    def _on_pipeline_ready(self, event: Event) -> None:
        instance_ids: List[str] = event.payload["instance_ids"]
        self._reserved_instances.difference_update(instance_ids)
        usable = {
            instance.instance_id
            for instance in self.instance_manager.stable_instances()
        }
        if not all(instance_id in usable for instance_id in instance_ids):
            # One of the reserved instances was preempted while warming up.
            self._try_add_pipelines()
            return
        shape = self._fixed_shape
        if shape is None:
            return
        devices: List[DeviceId] = []
        for instance in self.instance_manager.stable_instances():
            if instance.instance_id in instance_ids:
                devices.extend(instance.gpu_ids)
        self.dataplane.add_pipeline(shape, next(self._pipeline_counter), devices)
        self._record_scaling("pipeline-added", stall_time=0.0)
        self.dataplane.dispatch()

    def _record_scaling(self, reason: str, stall_time: float) -> None:
        if self._fixed_shape is None:
            return
        new_config = ParallelConfig(
            max(len(self.dataplane.pipelines), 1),
            self._fixed_shape.pipeline_degree,
            self._fixed_shape.tensor_degree,
            self._fixed_shape.batch_size,
        )
        old_config = self.current_config
        self.dataplane.config = new_config
        self.stats.record_reconfiguration(
            ReconfigurationRecord(
                time=self.simulator.now,
                old_config=old_config,
                new_config=new_config,
                reason=reason,
                stall_time=stall_time,
            )
        )
