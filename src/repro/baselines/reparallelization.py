"""Reparallelization baseline (Varuna-style restart-based adaptation).

This baseline changes the parallel configuration exactly like SpotServe's
controller -- the paper notes "the configuration of Reparallelization is
always consistent with SpotServe" -- but it has no context migration: every
reconfiguration restarts and reinitialises all instances, reloading the model
parameters from persistent storage and recomputing every interrupted request
from scratch.  It also reacts *after* a preemption takes effect instead of
using the grace period.

Implementation-wise it reuses SpotServe's planning logic (so the chosen
configurations match), prepares its switches with
:class:`RestartTransitions` (full restart, nothing preserved) and handles
preemptions reactively.
"""

from __future__ import annotations

import dataclasses

from ..cloud.instance import Instance
from ..core.config import ParallelConfig
from ..core.reconfiguration import Transition, TransitionPlanner, default_placement
from ..core.server import SpotServeSystem


class RestartTransitions(TransitionPlanner):
    """Every switch is a full restart: nothing migrates, nothing is preserved."""

    def prepare(self, config: ParallelConfig, reason: str, objective: str) -> Transition:
        system = self.system
        restart = system.migration_planner.estimate_restart_plan(
            config, gpus_per_instance=system.gpus_per_instance
        )
        # Everything stops immediately and stays down for the full restart:
        # the engines relaunch and reload every parameter from storage.
        return Transition(
            config=config,
            placement=default_placement(config, system.instance_manager.stable_devices()),
            stall_time=restart.stall_time,
            stop_time=system.simulator.now,
            reason=reason,
            preserve_cache=False,
            objective=objective,
        )


class ReparallelizationSystem(SpotServeSystem):
    """Adaptive configuration, but every change is a full restart."""

    name = "Reparallelization"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Restart-based systems keep nothing across a reconfiguration: no
        # token-level recovery and no context migration.
        self.options = dataclasses.replace(self.options, stateful_recovery=False)
        self.transitions = RestartTransitions(self)

    # ------------------------------------------------------------------
    # Reactive preemption handling
    # ------------------------------------------------------------------
    def handle_preemption_notice(self, instance: Instance, deadline: float) -> None:
        # Reactive baseline: the grace period is not used.
        return

    def handle_preemption_final(self, instance: Instance) -> None:
        self.dataplane.teardown({instance.instance_id})
        self._plan_reconfiguration(reason="preemption-final")

    def handle_zone_outage(self, zone: str, phase: str, payload: dict) -> None:
        # Reactive baseline: the warning is ignored (like the grace period);
        # the full restart happens only once the zone is actually gone.
        if phase == "down":
            self._plan_reconfiguration(reason="zone-outage-final")
