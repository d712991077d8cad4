"""The adaptation round: which steps it has, their order, and late wrappers.

``ServingSystemBase.round_steps`` is built once from the options: overload
control when an admission policy is configured, fleet sizing when an
autoscaler is, then the system's own re-evaluation (SpotServe with the
adaptive controller).  Three claims are pinned here:

* **Composition** -- each configuration gets exactly its steps, in order.
* **Order** -- the autoscaler sizes the fleet for the backlog the shed
  left: each round's ``AutoscaleSignal.queue_depth`` equals the queue depth
  after that round's shed.
* **Call-time lookup** -- wrappers installed on ``system.admission.shed``
  and ``system.autoscaler.plan`` after ``initialize()`` (as perfbench
  installs them) see every call, so no step may bind a subsystem's method
  when the tuple is built.
"""

import pytest

from repro.baselines.rerouting import RequestReroutingSystem
from repro.cloud.provider import CloudProvider
from repro.core.server import ADAPTATION_INTERVAL, SpotServeOptions, SpotServeSystem
from repro.experiments.scenarios import overload_market
from repro.llm.spec import OPT_6_7B
from repro.sim.engine import Simulator
from repro.sim.events import EventType
from repro.workload.arrival import GammaArrivals

DURATION = 600.0
#: About twice what the fleet serves: the deadline-aware policy sheds on
#: the later rounds.
OVERLOAD = GammaArrivals(rate=4.0, cv=2.0, seed=0)


def build(system_class=SpotServeSystem, simulator=None, **options):
    """A system on a pinned six-instance, three-zone fleet."""
    simulator = simulator or Simulator()
    provider = CloudProvider(simulator, zones=overload_market(DURATION))
    return system_class(simulator, provider, OPT_6_7B, options=SpotServeOptions(**options))


def shedding_and_scaling(simulator=None, **options):
    """Deadline-aware shedding plus an autoscaler, under sustained overload."""
    return build(
        SpotServeSystem,
        simulator,
        admission="deadline-aware",
        autoscale_policy="target-utilization",
        autoscale_params={"min_instances": 2, "max_instances": 12, "cooldown": 60.0},
        **options,
    )


def counting(calls, method, observe=None):
    """Wrap *method*: append ``observe(args, result)`` (or None) per call."""

    def wrapper(*args):
        result = method(*args)
        calls.append(observe(args, result) if observe else None)
        return result

    return wrapper


class TestComposition:
    def test_spotserve_sheds_then_scales_then_reevaluates(self):
        system = shedding_and_scaling()
        assert system.round_steps == (
            system._run_admission_round,
            system.acquirer.run_autoscaler,
            system.handle_workload_check,
        )

    def test_without_the_adaptive_controller_no_round_proposes(self):
        # Bracket the system's own WORKLOAD_CHECK handler: handlers run in
        # registration order, so ``in_round`` is set exactly while a round
        # runs.
        simulator = Simulator()
        in_round = []
        simulator.on(EventType.WORKLOAD_CHECK, lambda event: in_round.append(True))
        system = shedding_and_scaling(simulator, adaptive_controller=False)
        simulator.on(EventType.WORKLOAD_CHECK, lambda event: in_round.clear())
        assert system.round_steps == (
            system._run_admission_round,
            system.acquirer.run_autoscaler,
        )
        from_rounds = []
        system.controller.propose = counting(
            from_rounds, system.controller.propose, lambda args, result: bool(in_round)
        )
        system.submit_arrival_process(OVERLOAD, DURATION)
        system.run(until=DURATION)
        assert system.stats.requests_shed > 0
        assert not any(from_rounds)

    def test_rerouting_with_an_autoscaler_only_scales(self):
        system = build(
            RequestReroutingSystem,
            autoscale_policy="target-utilization",
            autoscale_params={"min_instances": 2, "max_instances": 12},
        )
        assert system.round_steps == (system.acquirer.run_autoscaler,)

    def test_rerouting_without_subsystems_has_no_steps(self):
        assert build(RequestReroutingSystem).round_steps == ()


@pytest.fixture(scope="module")
def wrapped_run():
    """One overload run with perfbench-style wrappers installed late.

    Returns the shed records ``(time, queue depth after the shed, shed
    count)``, the autoscaler's ``(time, signal queue depth)`` records and
    the times of the system's rounds.
    """
    system = shedding_and_scaling()
    simulator = system.simulator
    system.submit_arrival_process(OVERLOAD, DURATION)
    system.initialize()
    queue = system.request_queue
    sheds, plans, rounds = [], [], []
    system.admission.shed = counting(
        sheds,
        system.admission.shed,
        lambda args, shed: (simulator.now, queue.pending, len(shed)),
    )
    system.autoscaler.plan = counting(
        plans,
        system.autoscaler.plan,
        lambda args, decision: (args[0].time, args[0].queue_depth),
    )
    simulator.on(
        EventType.WORKLOAD_CHECK,
        lambda event: rounds.append(event.time) if event.payload["system"] is system else None,
    )
    system.run(until=DURATION)
    return sheds, plans, rounds


class TestOrder:
    def test_the_autoscaler_sees_the_backlog_the_shed_left(self, wrapped_run):
        sheds, plans, _ = wrapped_run
        after_shed = {time: depth for time, depth, _ in sheds}
        assert plans
        for time, depth in plans:
            assert depth == after_shed[time], time
        # The check has teeth: on some round the shed removed requests
        # right before the autoscaler planned.
        shed_counts = {time: count for time, _, count in sheds}
        assert any(shed_counts[time] > 0 for time, _ in plans)


class TestCallTimeLookup:
    def test_late_wrappers_see_one_shed_per_round_and_the_plans(self, wrapped_run):
        sheds, plans, rounds = wrapped_run
        assert len(rounds) == int(DURATION // ADAPTATION_INTERVAL)
        assert [time for time, _, _ in sheds] == rounds
        assert plans
