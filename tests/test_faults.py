"""Tests for the cloud-fault injection layer and the acquisition resilience.

Four claims are pinned here:

* **Determinism** -- every fault kind draws from its own named seeded
  stream, so identical plans reproduce identical fault sequences and
  enabling one fault kind never perturbs another's draws.
* **Digest neutrality** -- installing an injector with a *null* plan leaves
  the two frozen golden digests byte-identical, and the test counts the
  hook invocations so the claim is not vacuous (the hooks really ran).
* **Resilience accounting** -- every refused or failed acquisition is
  either satisfied by a bounded-backoff retry or reported in the terminal
  ``allocation_shortfall`` counter.
* **Conservation under chaos** -- ``submitted == completed + unfinished +
  dropped + rejected + shed`` holds at random mid-run probe points under
  randomized fault mixes, and the Section 4.2 early-preemption path is
  exercised end to end through the real event path.
"""

import collections
import dataclasses
import hashlib
import random

import numpy as np
import pytest

from repro.cloud.manager import InstanceManager
from repro.cloud.provider import CloudProvider
from repro.cloud.trace import AvailabilityTrace
from repro.core.acquisition import (
    RETRY_BASE_DELAY,
    RETRY_JITTER,
    RETRY_MAX_ATTEMPTS,
    RETRY_MAX_DELAY,
    FleetAcquirer,
    retry_delay,
)
from repro.core.reconfiguration import TransitionPlanner
from repro.core.server import SpotServeOptions, SpotServeSystem
from repro.experiments.runner import run_scenario_experiment, run_serving_experiment
from repro.experiments.scenarios import (
    chaos_fault_plan,
    chaos_scenario,
    multi_zone_fluctuating_scenario,
    stable_workload_scenario,
)
from repro.faults.injector import (
    DegradedWindow,
    FaultInjector,
    FaultPlan,
    ZoneFaultModel,
)
from repro.llm.spec import get_model
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed

# The frozen golden digests (see tests/test_streaming_equivalence.py): the
# fault hooks must not move them while no fault plan is active.
SINGLE_ZONE_SHA256 = "13bd9e142347b849dcba2c5f52829a5ca9c7638ccb40c83512c45d80ce4d64b5"
MULTI_ZONE_SHA256 = "33c8a35b9b2764488dda4379defb50adea6283cafdcfed7618b22167ecc8502c"


# ----------------------------------------------------------------------
# Plan / model / policy unit behaviour
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_default_model_is_null(self):
        model = ZoneFaultModel()
        probabilities = (
            model.refusal_prob,
            model.launch_failure_prob,
            model.straggler_prob,
            model.early_preemption_prob,
        )
        assert probabilities == (0.0, 0.0, 0.0, 0.0)
        plan = FaultPlan()
        assert plan.model_for("us-east-1a") is None
        assert plan.degraded_windows == ()

    def test_zone_model_overrides_default(self):
        harsh = ZoneFaultModel(refusal_prob=0.5)
        mild = ZoneFaultModel(refusal_prob=0.1)
        plan = FaultPlan(default_model=mild, zone_models=(("us-east-1a", harsh),))
        assert plan.model_for("us-east-1a") is harsh
        assert plan.model_for("us-west-2a") is mild

    def test_plan_is_hashable_and_picklable(self):
        import pickle

        plan = chaos_fault_plan(900.0, seed=3)
        assert hash(plan) == hash(pickle.loads(pickle.dumps(plan)))

    def test_degraded_window_boundaries(self):
        window = DegradedWindow(start=100.0, end=200.0, bandwidth_factor=4.0)
        assert window.factor_at(99.9) == 1.0
        assert window.factor_at(100.0) == 4.0
        assert window.factor_at(199.9) == 4.0
        assert window.factor_at(200.0) == 1.0

    def test_overlapping_windows_compound(self):
        plan = FaultPlan(
            degraded_windows=(
                DegradedWindow(0.0, 100.0, 2.0),
                DegradedWindow(50.0, 150.0, 3.0),
            )
        )
        injector = FaultInjector(plan)
        assert injector.bandwidth_factor(25.0) == 2.0
        assert injector.bandwidth_factor(75.0) == 6.0
        assert injector.bandwidth_factor(125.0) == 3.0
        assert injector.bandwidth_factor(175.0) == 1.0


class TestRetryDelay:
    def test_exponential_growth_and_cap(self):
        assert (RETRY_BASE_DELAY, RETRY_MAX_DELAY) == (2.0, 30.0)
        # A zero draw adds no jitter.
        assert [retry_delay(a, 0.0) for a in range(6)] == [
            2.0,
            4.0,
            8.0,
            16.0,
            30.0,
            30.0,
        ]

    def test_jitter_scales_with_draw(self):
        assert RETRY_JITTER == 0.25
        assert retry_delay(0, 0.0) == 2.0
        assert retry_delay(0, 1.0) == pytest.approx(2.5)

    def test_delay_is_pure(self):
        assert retry_delay(3, 0.5) == retry_delay(3, 0.5)


class TestRetryBudget:
    @pytest.mark.parametrize("first_attempt", range(RETRY_MAX_ATTEMPTS + 1))
    def test_a_refused_request_retries_until_the_budget_is_spent(self, first_attempt):
        # The cloud refuses every request, so a retry chain started at
        # *first_attempt* fires once per attempt left in the budget, each
        # after its jittered backoff, then reports the instance unmet; a
        # chain whose budget is already spent schedules nothing.
        simulator = Simulator()
        trace = AvailabilityTrace(name="flat", initial_instances=2, events=[], duration=600.0)
        plan = FaultPlan(seed=0, default_model=ZoneFaultModel(refusal_prob=1.0))
        provider = CloudProvider(simulator, trace, fault_injector=FaultInjector(plan))
        system = SpotServeSystem(
            simulator, provider, get_model("OPT-6.7B"),
            options=SpotServeOptions(allow_on_demand=True),
        )
        fired = RETRY_MAX_ATTEMPTS - first_attempt
        assert system.acquirer._retry(1, None, attempt=first_attempt, trigger="test") == (
            fired > 0
        )
        simulator.run()
        stats = system.stats
        assert stats.acquisition_retries == fired
        assert stats.allocation_refusals == fired
        assert stats.allocation_shortfall == (1 if fired else 0)
        assert system.acquirer.pending_retries == 0
        backoffs = range(first_attempt, RETRY_MAX_ATTEMPTS)
        assert sum(retry_delay(a, 0.0) for a in backoffs) <= simulator.now
        assert simulator.now <= sum(retry_delay(a, 1.0) for a in backoffs)


class TestSpecValidation:
    """Impossible fault specs fail at construction, not mid-run."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"refusal_prob": 1.7},
            {"refusal_prob": -0.1},
            {"launch_failure_prob": 2.0},
            {"straggler_prob": float("nan")},
            {"early_preemption_prob": -1.0},
            {"straggler_multiplier": 0.5},
            {"min_grace_fraction": 1.5},
            {"min_grace_fraction": -0.25},
        ],
    )
    def test_zone_fault_model_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ZoneFaultModel(**kwargs)

    @pytest.mark.parametrize(
        "window",
        [(200.0, 100.0, 2.0), (100.0, 100.0, 2.0), (0.0, 100.0, 0.0), (0.0, 100.0, -2.0)],
    )
    def test_degraded_window_rejects(self, window):
        with pytest.raises(ValueError):
            DegradedWindow(*window)

    def test_fault_plan_rejects_a_zone_listed_twice(self):
        harsh = ZoneFaultModel(refusal_prob=0.5)
        mild = ZoneFaultModel(refusal_prob=0.1)
        with pytest.raises(ValueError, match="us-east-1a"):
            FaultPlan(
                zone_models=(
                    ("us-east-1a", harsh),
                    ("us-west-2a", mild),
                    ("us-east-1a", mild),
                )
            )

    def test_boundary_values_construct(self):
        ZoneFaultModel(
            refusal_prob=1.0,
            launch_failure_prob=0.0,
            straggler_multiplier=1.0,
            min_grace_fraction=0.0,
        )
        ZoneFaultModel(min_grace_fraction=1.0)
        DegradedWindow(0.0, 1e-9, 0.5)


class TestInjectorDeterminism:
    def test_same_plan_same_draws(self):
        plan = chaos_fault_plan(900.0, seed=11)
        a, b = FaultInjector(plan), FaultInjector(plan)
        for injector in (a, b):
            injector.refused_count("us-east-1a", "spot", 5)
        assert a.allocation_refusals == b.allocation_refusals
        assert a.launch_delay_multiplier("us-east-1a") == b.launch_delay_multiplier(
            "us-east-1a"
        )
        assert a.launch_failure_at("us-east-1a", 0.0, 40.0) == b.launch_failure_at(
            "us-east-1a", 0.0, 40.0
        )
        assert a.early_reclaim_time("us-east-1a", 0.0, 30.0) == b.early_reclaim_time(
            "us-east-1a", 0.0, 30.0
        )
        assert a.retry_jitter("us-east-1a") == b.retry_jitter("us-east-1a")

    def test_fault_kinds_draw_from_independent_streams(self):
        # Consuming one kind's stream must not change another kind's draws.
        plan = chaos_fault_plan(900.0, seed=7)
        reference = FaultInjector(plan).launch_delay_multiplier("us-east-1a")
        perturbed = FaultInjector(plan)
        perturbed.refused_count("us-east-1a", "spot", 100)
        perturbed.early_reclaim_time("us-east-1a", 0.0, 30.0)
        assert perturbed.launch_delay_multiplier("us-east-1a") == reference

    def test_null_probabilities_consume_no_entropy(self):
        injector = FaultInjector(FaultPlan(default_model=ZoneFaultModel()))
        assert injector.refused_count("z", "spot", 10) == 0
        assert injector.launch_delay_multiplier("z") == 1.0
        assert injector.launch_failure_at("z", 0.0, 40.0) is None
        assert injector.early_reclaim_time("z", 0.0, 30.0) is None
        # Probability-zero kinds short-circuit before touching any stream.
        assert injector._streams == {}

    def test_refusal_bounds_and_counter(self):
        always = FaultInjector(
            FaultPlan(default_model=ZoneFaultModel(refusal_prob=1.0))
        )
        assert always.refused_count("z", "spot", 4) == 4
        assert always.allocation_refusals == 4
        never = FaultInjector(FaultPlan(default_model=ZoneFaultModel()))
        assert never.refused_count("z", "spot", 4) == 0

    def test_launch_failure_time_inside_launch_window(self):
        injector = FaultInjector(
            FaultPlan(default_model=ZoneFaultModel(launch_failure_prob=1.0))
        )
        failure = injector.launch_failure_at("z", 100.0, 140.0)
        assert failure is not None
        assert 100.0 <= failure < 140.0

    def test_early_reclaim_respects_min_grace_fraction(self):
        injector = FaultInjector(
            FaultPlan(
                default_model=ZoneFaultModel(
                    early_preemption_prob=1.0, min_grace_fraction=0.5
                )
            )
        )
        for _ in range(20):
            reclaim = injector.early_reclaim_time("z", 100.0, 130.0)
            assert reclaim is not None
            assert 115.0 <= reclaim < 130.0

    def test_refusals_are_counted_on_the_injector(self):
        injector = FaultInjector(
            FaultPlan(default_model=ZoneFaultModel(refusal_prob=1.0))
        )
        assert injector.refused_count("z", "spot", 3) == 3
        assert injector.allocation_refusals == 3

    def test_streams_are_seeded_through_derive_seed(self):
        injector = FaultInjector(FaultPlan(seed=5))
        draws = injector._stream("us-east-1a", "refusal:spot").random(4)
        expected = np.random.default_rng(derive_seed(5, "us-east-1a:refusal:spot"))
        assert list(draws) == list(expected.random(4))


# ----------------------------------------------------------------------
# Digest neutrality: a null-plan injector is installed, consulted, and
# changes nothing (the non-vacuous hooks-installed guarantee)
# ----------------------------------------------------------------------
class _CountingInjector(FaultInjector):
    """Counts hook invocations so the neutrality claim is not vacuous."""

    def __init__(self, plan=None):
        super().__init__(plan)
        self.calls = {
            "refused": 0,
            "straggler": 0,
            "launch_failure": 0,
            "early_reclaim": 0,
            "bandwidth": 0,
        }

    def refused_count(self, zone, market, requested):
        self.calls["refused"] += 1
        return super().refused_count(zone, market, requested)

    def launch_delay_multiplier(self, zone):
        self.calls["straggler"] += 1
        return super().launch_delay_multiplier(zone)

    def launch_failure_at(self, zone, now, ready_at):
        self.calls["launch_failure"] += 1
        return super().launch_failure_at(zone, now, ready_at)

    def early_reclaim_time(self, zone, now, deadline):
        self.calls["early_reclaim"] += 1
        return super().early_reclaim_time(zone, now, deadline)

    def bandwidth_factor(self, time):
        self.calls["bandwidth"] += 1
        return super().bandwidth_factor(time)


class TestDigestNeutrality:
    def test_single_zone_golden_with_null_injector(self):
        injector = _CountingInjector(FaultPlan())
        scenario = stable_workload_scenario("OPT-6.7B", "AS", duration=400.0)
        result = run_serving_experiment(
            SpotServeSystem,
            scenario.model_name,
            scenario.trace,
            scenario.arrival_process(),
            duration=scenario.duration,
            drain_time=200.0,
            options=scenario.options(),
            fault_injector=injector,
        )
        digest = hashlib.sha256(result.stats.summary_text().encode()).hexdigest()
        assert digest == SINGLE_ZONE_SHA256
        # The hooks really ran: preemption notices consulted the early
        # reclaim draw, migrations consulted the degradation hook.
        assert injector.calls["early_reclaim"] > 0
        assert injector.calls["bandwidth"] > 0
        # ...and a null plan never materialises an RNG stream.
        assert injector._streams == {}

    def test_multi_zone_golden_with_null_injector(self):
        injector = _CountingInjector(FaultPlan())
        scenario, arrivals = multi_zone_fluctuating_scenario(
            "OPT-6.7B", duration=600.0
        )
        result = run_serving_experiment(
            SpotServeSystem,
            scenario.model_name,
            trace=None,
            arrival_process=arrivals,
            duration=scenario.duration,
            drain_time=300.0,
            options=scenario.options(),
            zones=scenario.zones,
            allow_spot_requests=True,
            fault_injector=injector,
        )
        digest = hashlib.sha256(result.stats.summary_text().encode()).hexdigest()
        assert digest == MULTI_ZONE_SHA256
        # All five hook kinds are on the consulted path here: the autoscaler
        # allocates (refusal + straggler + launch-failure draws), the trace
        # preempts (early-reclaim draws), migrations ask for bandwidth.
        assert all(count > 0 for count in injector.calls.values()), injector.calls
        assert injector._streams == {}
        fault_counters = (
            result.stats.allocation_refusals,
            result.stats.launch_failures,
            result.stats.acquisition_retries,
            result.stats.early_preemptions,
            result.stats.migration_fallbacks,
            result.stats.allocation_shortfall,
        )
        assert fault_counters == (0, 0, 0, 0, 0, 0)

    def test_fault_counters_stay_out_of_legacy_summary(self):
        from repro.core.stats import ServingStats

        text = ServingStats().summary_text()
        for key in (
            "allocation_refusals",
            "launch_failures",
            "acquisition_retries",
            "early_preemptions",
            "migration_fallbacks",
            "allocation_shortfall",
        ):
            assert key not in text
            assert f"{key}=0" in ServingStats().extended_summary_text()


# ----------------------------------------------------------------------
# Resilience accounting: retries, watchdog, shortfall
# ----------------------------------------------------------------------
def _run_fluctuating_with_plan(plan, duration=600.0):
    scenario, arrivals = multi_zone_fluctuating_scenario("OPT-6.7B", duration=duration)
    scenario = dataclasses.replace(scenario, fault_plan=plan)
    return run_scenario_experiment(scenario, arrivals, drain_time=300.0)


class TestResilienceAccounting:
    def test_refusals_are_chased_by_retries(self):
        # Moderate refusal rates are absorbed *within* one allocation call
        # (the provider walks every zone), so an aggressive rate is needed
        # before whole rounds come up short and the backoff machinery runs.
        plan = FaultPlan(
            seed=1, default_model=ZoneFaultModel(refusal_prob=0.8)
        )
        result = _run_fluctuating_with_plan(plan)
        stats = result.stats
        assert stats.allocation_refusals > 0
        assert stats.acquisition_retries > 0
        # Bounded backoff found capacity eventually: nothing terminally lost.
        assert stats.allocation_shortfall == 0

    def test_partial_grants_are_chased_by_retries(self, monkeypatch):
        # Refusal rate low enough that some allocation is granted only in
        # part while a retry chases what was missing.
        grants = []
        allocate = FleetAcquirer._allocate

        def recording_allocate(acquirer, count, zone=None, avoid_zones=None):
            granted = allocate(acquirer, count, zone=zone, avoid_zones=avoid_zones)
            grants.append((count, len(granted)))
            return granted

        monkeypatch.setattr(FleetAcquirer, "_allocate", recording_allocate)
        plan = FaultPlan(
            seed=2, default_model=ZoneFaultModel(refusal_prob=0.7)
        )
        result = _run_fluctuating_with_plan(plan)
        stats = result.stats
        assert stats.allocation_refusals > 0
        assert stats.acquisition_retries > 0
        assert any(0 < granted < count for count, granted in grants)

    def test_total_refusals_never_exceed_requests_plus_retries(self):
        # Every refused instance is either re-requested (a retry fired) or
        # reported terminally; the exhaustion path strictly bounds retries.
        plan = FaultPlan(seed=3, default_model=ZoneFaultModel(refusal_prob=1.0))
        result = _run_fluctuating_with_plan(plan)
        stats = result.stats
        assert stats.allocation_refusals > 0
        assert stats.acquisition_retries > 0
        # With refusal_prob=1.0 no retry can ever succeed: after the bounded
        # attempts the unmet demand must land in the shortfall counter.
        assert stats.allocation_shortfall > 0

    def test_single_tenant_counts_equal_the_injector_totals(self, applied_launch_failures):
        # One serving system makes every request, so it counts every fault.
        plan = FaultPlan(
            seed=4,
            default_model=ZoneFaultModel(refusal_prob=0.5, launch_failure_prob=0.5),
        )
        injector = FaultInjector(plan)
        scenario, arrivals = multi_zone_fluctuating_scenario("OPT-6.7B", duration=600.0)
        stats = run_scenario_experiment(
            scenario, arrivals, drain_time=300.0, fault_injector=injector
        ).stats
        assert injector.allocation_refusals > 0
        assert stats.allocation_refusals == injector.allocation_refusals
        assert len(applied_launch_failures) > 0
        assert stats.launch_failures == len(applied_launch_failures)

    def test_launch_failures_trigger_rerequests(self):
        plan = FaultPlan(
            seed=4, default_model=ZoneFaultModel(launch_failure_prob=1.0)
        )
        result = _run_fluctuating_with_plan(plan)
        stats = result.stats
        assert stats.launch_failures > 0
        assert stats.acquisition_retries > 0

    def test_straggler_launches_hit_the_watchdog(self):
        # Every launch is a straggler stretched up to 10x the nominal 40 s
        # startup delay; the watchdog (3x) abandons the stuck ones and
        # re-requests, which is the only way acquisition_retries can move
        # here (refusals and launch failures are off).
        plan = FaultPlan(
            seed=5,
            default_model=ZoneFaultModel(
                straggler_prob=1.0, straggler_multiplier=10.0
            ),
        )
        result = _run_fluctuating_with_plan(plan)
        stats = result.stats
        assert stats.allocation_refusals == 0
        assert stats.launch_failures == 0
        assert result.stats.acquisition_retries > 0

    def test_pending_retries_suppress_autoscaler_rerequests(self):
        # The autoscaler treats in-flight retries as committed capacity; a
        # high-refusal run must not acquire beyond its committed plans (the
        # double-request pathology would show up as acquisitions far above
        # the fleet bound).
        plan = FaultPlan(seed=6, default_model=ZoneFaultModel(refusal_prob=0.7))
        result = _run_fluctuating_with_plan(plan)
        scenario, _ = multi_zone_fluctuating_scenario("OPT-6.7B", duration=600.0)
        granted_total = sum(
            sum(record.acquired.values()) for record in result.stats.autoscale_actions
        )
        assert granted_total <= scenario.max_instances * 3

    def test_only_an_injector_arms_retries_and_the_watchdog(self, monkeypatch):
        # Count what the server arms (its GENERIC actions) against what the
        # cloud granted through the instance manager, on the multi-zone
        # golden run whose autoscaler grows the fleet.
        counts = collections.Counter()
        schedule_after = Simulator.schedule_after
        alloc = InstanceManager.alloc

        def counting_schedule_after(self, delay, event_type, payload=None, callback=None):
            if isinstance(payload, dict) and "server_action" in payload:
                counts[payload["server_action"]] += 1
            return schedule_after(self, delay, event_type, payload, callback)

        def counting_alloc(self, *args, **kwargs):
            granted = alloc(self, *args, **kwargs)
            counts["granted"] += len(granted)
            return granted

        monkeypatch.setattr(Simulator, "schedule_after", counting_schedule_after)
        monkeypatch.setattr(InstanceManager, "alloc", counting_alloc)

        def run(fault_injector):
            counts.clear()
            scenario, arrivals = multi_zone_fluctuating_scenario(
                "OPT-6.7B", duration=600.0
            )
            run_serving_experiment(
                SpotServeSystem,
                scenario.model_name,
                trace=None,
                arrival_process=arrivals,
                duration=scenario.duration,
                drain_time=300.0,
                options=scenario.options(),
                zones=scenario.zones,
                allow_spot_requests=True,
                fault_injector=fault_injector,
            )
            return dict(counts)

        bare = run(None)
        assert bare["granted"] > 0
        assert "launch_watchdog" not in bare
        assert "acquisition_retry" not in bare

        null = run(FaultInjector(FaultPlan()))
        assert null["granted"] > 0
        assert null["launch_watchdog"] == null["granted"]


# ----------------------------------------------------------------------
# Degraded bandwidth: read once per reconfiguration, kept on the network
# ----------------------------------------------------------------------
class TestBandwidthFactorPerReconfiguration:
    PLAN = FaultPlan(
        degraded_windows=(
            DegradedWindow(start=100.0, end=400.0, bandwidth_factor=5.0),
        ),
    )

    @staticmethod
    def run_recording(monkeypatch, injector):
        """Run the fluctuating scenario; record each reconfiguration."""
        records = []
        prepare = TransitionPlanner.prepare

        def recording_prepare(self, config, reason):
            transition = prepare(self, config, reason)
            system = self.system
            records.append((system.simulator.now, system.network.bandwidth_factor))
            return transition

        monkeypatch.setattr(TransitionPlanner, "prepare", recording_prepare)
        scenario, arrivals = multi_zone_fluctuating_scenario("OPT-6.7B", duration=600.0)
        run_scenario_experiment(
            scenario, arrivals, drain_time=300.0, fault_injector=injector
        )
        return records

    def test_each_reconfiguration_reads_the_factor_once(self, monkeypatch):
        injector = _CountingInjector(self.PLAN)
        records = self.run_recording(monkeypatch, injector)
        assert records
        assert injector.calls["bandwidth"] == len(records)

    def test_network_carries_the_factor_of_its_last_reconfiguration(self, monkeypatch):
        records = self.run_recording(monkeypatch, FaultInjector(self.PLAN))
        for now, factor in records:
            assert factor == (5.0 if 100.0 <= now < 400.0 else 1.0), now
        # The window and the time around it both saw reconfigurations.
        assert {factor for _, factor in records} == {1.0, 5.0}


# ----------------------------------------------------------------------
# End-to-end early preemption (Section 4.2 through the real event path)
# ----------------------------------------------------------------------
class TestEarlyPreemptionEndToEnd:
    def test_injected_early_reclaims_hit_the_rearrangement_path(self):
        plan = FaultPlan(
            seed=0,
            default_model=ZoneFaultModel(
                early_preemption_prob=1.0, min_grace_fraction=0.2
            ),
        )
        result = _run_fluctuating_with_plan(plan)
        stats = result.stats
        # The trace preempts several times and every reclaim fires early.
        assert stats.preemption_notices > 0
        assert stats.early_preemptions > 0
        # Conservation: early reclaims reroute, they never drop.
        assert stats.requests_dropped == 0
        assert result.completed_requests > 0

    def test_early_preemption_run_is_deterministic(self):
        plan = FaultPlan(
            seed=9,
            default_model=ZoneFaultModel(
                early_preemption_prob=0.8, min_grace_fraction=0.25
            ),
        )
        first = _run_fluctuating_with_plan(plan)
        second = _run_fluctuating_with_plan(plan)
        assert (
            first.stats.extended_summary_text()
            == second.stats.extended_summary_text()
        )


# ----------------------------------------------------------------------
# Conservation under randomized fault mixes, probed mid-run
# ----------------------------------------------------------------------
class TestConservationUnderChaos:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conservation_holds_at_random_probe_points(self, seed):
        rng = random.Random(seed)
        plan = FaultPlan(
            seed=seed,
            default_model=ZoneFaultModel(
                refusal_prob=rng.uniform(0.0, 0.5),
                launch_failure_prob=rng.uniform(0.0, 0.3),
                straggler_prob=rng.uniform(0.0, 0.5),
                straggler_multiplier=1.0 + 3.0 * rng.random(),
                early_preemption_prob=rng.uniform(0.0, 1.0),
                min_grace_fraction=0.2,
            ),
            degraded_windows=(
                DegradedWindow(
                    start=rng.uniform(50.0, 200.0),
                    end=rng.uniform(250.0, 550.0),
                    bandwidth_factor=rng.uniform(1.0, 12.0),
                ),
            ),
        )
        scenario, arrivals = chaos_scenario(
            "OPT-6.7B", duration=600.0, target_requests=8000
        )
        scenario = dataclasses.replace(scenario, fault_plan=plan)

        simulator = Simulator()
        provider = CloudProvider(
            simulator,
            None,
            zones=scenario.zones,
            allow_spot_requests=True,
            fault_injector=FaultInjector(plan),
        )
        system = SpotServeSystem(
            simulator,
            provider,
            get_model(scenario.model_name),
            options=scenario.options(),
            initial_arrival_rate=max(
                arrivals.count_arrivals(scenario.duration) / scenario.duration, 1e-3
            ),
        )
        system.submit_arrival_process(arrivals, scenario.duration)
        system.initialize()

        probes = sorted(rng.uniform(1.0, 780.0) for _ in range(12)) + [780.0]
        for until in probes:
            simulator.run(until=until)
            stats = system.stats
            assert system.submitted_requests == (
                stats.completed_count
                + system.unfinished_request_count()
                + stats.requests_dropped
                + stats.requests_rejected
                + stats.requests_shed
            ), f"conservation violated under fault seed {seed} at t={until}"
        assert system.stats.requests_dropped == 0

    def test_chaos_scenario_exercises_every_fault_path(self):
        scenario, arrivals = chaos_scenario("OPT-6.7B")
        result = run_scenario_experiment(scenario, arrivals, drain_time=300.0)
        stats = result.stats
        assert stats.allocation_refusals > 0
        assert stats.launch_failures > 0
        assert stats.acquisition_retries > 0
        assert stats.early_preemptions > 0
        assert stats.migration_fallbacks > 0
        assert stats.zone_outages == 1
        assert stats.requests_dropped == 0
        # Final conservation: whatever was not completed is still accounted.
        assert result.completed_requests + result.unserved_requests == (
            result.submitted_requests
        )

    def test_chaos_scenario_is_deterministic(self):
        scenario, arrivals = chaos_scenario("OPT-6.7B")
        first = run_scenario_experiment(scenario, arrivals, drain_time=300.0)
        scenario2, arrivals2 = chaos_scenario("OPT-6.7B")
        second = run_scenario_experiment(scenario2, arrivals2, drain_time=300.0)
        assert (
            first.stats.extended_summary_text()
            == second.stats.extended_summary_text()
        )
