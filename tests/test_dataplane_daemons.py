"""A completed batch clears its cache through the daemons its pipeline holds.

:meth:`~repro.core.dataplane.Dataplane._build` resolves each pipeline's
context daemons once, and a batch completion clears their cache contexts
through those references instead of looking each device up in the
:class:`~repro.engine.context.MetaContextManager`.  The two agree as long
as ``drop_instance`` only ever forgets instances that no live pipeline
uses.  These runs pin both halves of that argument on the paths that drop
instances -- preemptions and early reclaims (chaos, under SpotServe and
both reactive baselines, whose pipelines are still serving when the
instance goes), a zone outage, and the multi-tenant rebalance:

* at every ``drop_instance`` call, no live pipeline of the system that owns
  the meta-context uses the instance;
* after every event, each live pipeline holds exactly the daemons the
  meta-context currently has for its devices.
"""

import dataclasses
import sys

import pytest

from repro.baselines.reparallelization import ReparallelizationSystem
from repro.baselines.rerouting import RequestReroutingSystem
from repro.core.server import ServingSystemBase, SpotServeSystem
from repro.engine.context import MetaContextManager
from repro.experiments.runner import run_multi_tenant_experiment, run_scenario_experiment
from repro.experiments.scenarios import (
    chaos_scenario,
    multi_tenant_scenario,
    zone_outage_scenario,
)
from repro.sim.events import EventType


def assert_held_daemons_current(dataplane):
    daemons = dataplane.meta_context._daemons
    for pipeline in dataplane.pipelines:
        devices = list(pipeline.assignment.devices.values())
        assert len(pipeline.daemons) == len(devices)
        for device_id, daemon in zip(devices, pipeline.daemons):
            assert daemons.get(device_id) is daemon


@pytest.fixture
def drops(monkeypatch):
    """Check every serving system after each event and at each drop.

    Returns the callers of every ``drop_instance`` call, so a run can show
    it exercised the path it was chosen for.
    """
    systems = []
    callers = []
    initialize = ServingSystemBase.initialize

    def checked_initialize(system):
        initialize(system)
        systems.append(system)
        # Registered after the system's own handlers, so they run last.
        for event_type in EventType:
            system.simulator.on(
                event_type, lambda _event: assert_held_daemons_current(system.dataplane)
            )

    drop_instance = MetaContextManager.drop_instance

    def checked_drop(manager, instance_id):
        (owner,) = [system for system in systems if system.meta_context is manager]
        assert instance_id not in owner.dataplane.instance_ids()
        callers.append(sys._getframe(1).f_code.co_name)
        drop_instance(manager, instance_id)

    monkeypatch.setattr(ServingSystemBase, "initialize", checked_initialize)
    monkeypatch.setattr(MetaContextManager, "drop_instance", checked_drop)
    return callers


def chaos(system_cls):
    def run():
        scenario, arrivals = chaos_scenario("OPT-6.7B", duration=300.0, target_requests=8000)
        stats = run_scenario_experiment(
            scenario, arrivals, drain_time=100.0, system_cls=system_cls
        ).stats
        assert stats.preemption_notices > 0
        return stats

    return run


def zone_outage():
    scenario, arrivals = zone_outage_scenario(
        "OPT-6.7B", duration=400.0, outage_start=150.0, outage_duration=150.0
    )
    stats = run_scenario_experiment(scenario, arrivals, drain_time=100.0).stats
    assert stats.zone_outages == 1
    return stats


def multi_tenant():
    # Both tenants on every zone, so a rebalance can move an instance.
    base = multi_tenant_scenario("OPT-6.7B", duration=300.0)
    scenario = dataclasses.replace(
        base, tenants=tuple(dataclasses.replace(spec, zones=None) for spec in base.tenants)
    )
    return run_multi_tenant_experiment(scenario, drain_time=100.0).stats


@pytest.mark.parametrize(
    "run, dropping",
    [
        (chaos(SpotServeSystem), {"_on_preemption_final", "_on_zone_outage"}),
        (chaos(RequestReroutingSystem), {"_on_preemption_final", "_on_zone_outage"}),
        (chaos(ReparallelizationSystem), {"_on_preemption_final", "_on_zone_outage"}),
        (zone_outage, {"_on_zone_outage"}),
        (multi_tenant, {"_on_rebalance"}),
    ],
    ids=["chaos", "chaos-rerouting", "chaos-reparallelization", "zone-outage", "multi-tenant"],
)
def test_held_daemons_are_the_current_daemons(drops, run, dropping):
    stats = run()
    assert stats.completed_count > 0
    assert dropping <= set(drops)
