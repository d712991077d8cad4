"""Reparallelization baseline (Varuna-style restart-based adaptation).

This baseline changes the parallel configuration exactly like SpotServe's
controller -- the paper notes "the configuration of Reparallelization is
always consistent with SpotServe" -- but it has no context migration: every
reconfiguration restarts and reinitialises all instances, reloading the model
parameters from persistent storage and recomputing every interrupted request
from scratch.  It also reacts *after* a preemption takes effect instead of
using the grace period.

Implementation-wise it reuses SpotServe's planning logic (so the chosen
configurations match) and only overrides how a configuration switch is
executed (full restart, nothing preserved) and when preemptions are handled
(reactively).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from ..cloud.instance import Instance
from ..core.config import ParallelConfig
from ..core.server import SpotServeSystem
from ..engine.context import DeviceId
from ..engine.placement import TopologyPosition


class ReparallelizationSystem(SpotServeSystem):
    """Adaptive configuration, but every change is a full restart."""

    name = "Reparallelization"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Restart-based systems keep nothing across a reconfiguration: no
        # token-level recovery and no context migration.
        self.options = dataclasses.replace(self.options, stateful_recovery=False)

    # ------------------------------------------------------------------
    # Reactive preemption handling
    # ------------------------------------------------------------------
    def handle_preemption_notice(self, instance: Instance, deadline: float) -> None:
        # Reactive baseline: the grace period is not used.
        return

    def handle_preemption_final(self, instance: Instance) -> None:
        self._teardown_pipelines_using({instance.instance_id})
        self._plan_reconfiguration(reason="preemption-final")

    def handle_zone_outage(self, zone: str, phase: str, payload: dict) -> None:
        # Reactive baseline: the warning is ignored (like the grace period);
        # the full restart happens only once the zone is actually gone.
        if phase == "down":
            self._plan_reconfiguration(reason="zone-outage-final")

    # ------------------------------------------------------------------
    # Restart-based transition
    # ------------------------------------------------------------------
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
        devices = self._available_devices()
        placement = self._default_placement(new_config, devices)
        restart = self.migration_planner.estimate_restart_plan(
            new_config, gpus_per_instance=self.gpus_per_instance
        )
        # Everything stops immediately and stays down for the full restart:
        # the engines relaunch and reload every parameter from storage.
        stall_time = restart.stall_time
        stop_time = self.simulator.now
        return placement, stall_time, stop_time, 0.0, 0.0, False, None
