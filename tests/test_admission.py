"""Overload control: admission/shedding policies, conservation, digests.

Three contracts are pinned here:

* **Policy semantics** -- queue-cap rejects at the cap, deadline-aware
  sheds exactly the requests past the SLO-derived age bound, the token
  bucket refills at its (possibly adaptive) rate.
* **Request conservation under every policy** -- probed at arbitrary
  mid-run instants: ``submitted == completed + unfinished + dropped +
  rejected + shed``.  Rejection and shedding are accounting actions, not
  leaks.
* **Digest neutrality of the wiring** -- with a pass-through policy
  installed the hooks run on every arrival and every adaptation round, yet
  both golden ``summary_text()`` sha256 digests stay byte-identical to the
  values pinned before the subsystem existed.
"""

import hashlib
import random

import pytest

from repro.core.admission import (
    ADMISSION_POLICIES,
    AdmissionPolicy,
    AdmissionSignal,
    DeadlineAwarePolicy,
    QueueCapPolicy,
    TokenBucketPolicy,
    make_admission_policy,
)
from repro.core.server import SpotServeSystem
from repro.engine.batching import RequestQueue
from repro.experiments.policy_bench import ADMISSION_VARIANTS, run_admission_cell
from repro.experiments.runner import run_scenario_experiment, run_serving_experiment
from repro.experiments.scenarios import overload_scenario, stable_workload_scenario
from repro.workload.request import Request

# Golden digests pinned by the streaming-equivalence suite (no __init__.py
# under tests/, so pytest's rootdir insertion makes the sibling importable).
from test_streaming_equivalence import (
    MULTI_ZONE_SHA256,
    SINGLE_ZONE_SHA256,
    run_multi_zone,
)


def signal(time=0.0, **kwargs):
    return AdmissionSignal(time=time, **kwargs)


def request(arrival_time):
    return Request(arrival_time=arrival_time)


# ----------------------------------------------------------------------
# Policy unit semantics
# ----------------------------------------------------------------------
class TestFactory:
    def test_every_registered_policy_constructs(self):
        for name in ADMISSION_POLICIES:
            policy = make_admission_policy(name)
            assert policy.name == name

    def test_unknown_policy_raises_with_the_available_names(self):
        with pytest.raises(KeyError, match="queue-cap"):
            make_admission_policy("definitely-not-a-policy")

    def test_params_are_forwarded(self):
        policy = make_admission_policy("queue-cap", max_queue_depth=3)
        assert policy.max_queue_depth == 3


class TestQueueCap:
    def test_admits_below_and_rejects_at_the_cap(self):
        policy = QueueCapPolicy(max_queue_depth=2)
        assert policy.admit(request(0.0), signal(queue_depth=0))
        assert policy.admit(request(0.0), signal(queue_depth=1))
        assert not policy.admit(request(0.0), signal(queue_depth=2))
        assert not policy.admit(request(0.0), signal(queue_depth=50))

    def test_rejects_invalid_cap(self):
        with pytest.raises(ValueError):
            QueueCapPolicy(max_queue_depth=0)


class TestDeadlineAware:
    def test_sheds_exactly_the_requests_past_the_bound(self):
        queue = RequestQueue()
        for t in (0.0, 30.0, 60.0, 90.0):
            queue.enqueue(request(t))
        policy = DeadlineAwarePolicy(slo_latency=60.0)
        # Bound = slo - l_exe = 60 - 10 = 50; at t=100 requests older than
        # t=50 (arrivals at 0 and 30) are doomed.
        shed = policy.shed(queue, signal(time=100.0, execution_latency=10.0))
        assert [r.arrival_time for r in shed] == [0.0, 30.0]
        assert queue.pending == 2

    def test_bound_floors_at_the_min_age_fraction(self):
        queue = RequestQueue()
        queue.enqueue(request(94.0))
        policy = DeadlineAwarePolicy(slo_latency=60.0, min_age_fraction=0.1)
        # l_exe >= slo would shed brand-new arrivals without the floor
        # (bound would be <= 0); the 0.1 * slo floor keeps t >= 94 alive.
        shed = policy.shed(queue, signal(time=100.0, execution_latency=120.0))
        assert shed == []
        queue.enqueue(request(10.0))
        shed = policy.shed(queue, signal(time=100.0, execution_latency=120.0))
        assert [r.arrival_time for r in shed] == [10.0]

    def test_falls_back_to_the_signal_slo(self):
        policy = DeadlineAwarePolicy()
        queue = RequestQueue()
        queue.enqueue(request(0.0))
        shed = policy.shed(queue, signal(time=100.0, slo_latency=40.0))
        assert len(shed) == 1


class TestTokenBucket:
    def test_consumes_and_refills(self):
        policy = TokenBucketPolicy(rate=1.0, burst=2.0)
        assert policy.admit(request(0.0), signal(time=0.0))
        assert policy.admit(request(0.0), signal(time=0.0))
        assert not policy.admit(request(0.0), signal(time=0.0))  # bucket dry
        assert policy.admit(request(0.0), signal(time=1.0))  # one refilled
        assert not policy.admit(request(0.0), signal(time=1.0))

    def test_burst_caps_the_refill(self):
        policy = TokenBucketPolicy(rate=10.0, burst=2.0)
        assert policy.admit(request(0.0), signal(time=100.0))
        assert policy.admit(request(0.0), signal(time=100.0))
        assert not policy.admit(request(0.0), signal(time=100.0))

    def test_adaptive_rate_follows_the_round_signal(self):
        policy = TokenBucketPolicy(burst=4.0)
        assert policy.current_rate == pytest.approx(policy.min_rate)
        policy.observe_round(signal(time=30.0, serving_throughput=2.5))
        assert policy.current_rate == pytest.approx(2.5)
        # A configured rate never adapts.
        fixed = TokenBucketPolicy(rate=1.5)
        fixed.observe_round(signal(time=30.0, serving_throughput=9.0))
        assert fixed.current_rate == pytest.approx(1.5)


class TestRequestQueueShed:
    def test_shed_preserves_survivor_order(self):
        queue = RequestQueue()
        times = [5.0, 1.0, 7.0, 3.0, 9.0]
        for t in times:
            queue.enqueue(request(t))
        shed = queue.shed(lambda r: r.arrival_time < 4.0)
        assert sorted(r.arrival_time for r in shed) == [1.0, 3.0]
        survivors = [queue.next_batch(1).requests[0].arrival_time for _ in range(3)]
        assert survivors == [5.0, 7.0, 9.0]

    def test_shed_on_empty_queue_is_a_noop(self):
        queue = RequestQueue()
        assert queue.shed(lambda r: True) == []


# ----------------------------------------------------------------------
# Conservation property under every policy, probed mid-run
# ----------------------------------------------------------------------
class TestConservationProperty:
    @pytest.mark.parametrize("admission", sorted(ADMISSION_VARIANTS))
    def test_conservation_holds_at_random_probe_points(self, admission):
        scenario, arrivals = overload_scenario(
            "OPT-6.7B",
            duration=400.0,
            admission=None if admission == "none" else admission,
            admission_params=ADMISSION_VARIANTS[admission] or None,
        )
        from repro.cloud.provider import CloudProvider
        from repro.llm.spec import get_model
        from repro.sim.engine import Simulator

        simulator = Simulator()
        provider = CloudProvider(
            simulator, None, zones=scenario.zones, allow_spot_requests=False
        )
        system = SpotServeSystem(
            simulator,
            provider,
            get_model(scenario.model_name),
            options=scenario.options(),
            initial_arrival_rate=arrivals.rate,
        )
        system.submit_arrival_process(arrivals, scenario.duration)
        system.initialize()

        rng = random.Random(admission)
        probes = sorted(rng.uniform(1.0, 520.0) for _ in range(12)) + [520.0]
        for until in probes:
            simulator.run(until=until)
            stats = system.stats
            assert system.submitted_requests == (
                stats.completed_count
                + system.unfinished_request_count()
                + stats.requests_dropped
                + stats.requests_rejected
                + stats.requests_shed
            ), f"conservation violated under {admission!r} at t={until}"
        # The overload really exercised the policy (not a vacuous pass).
        if admission == "queue-cap" or admission == "token-bucket":
            assert system.stats.requests_rejected > 0
            assert system.stats.requests_shed == 0
        elif admission == "deadline-aware":
            assert system.stats.requests_shed > 0
            assert system.stats.requests_rejected == 0
        else:
            assert system.stats.requests_rejected == 0
            assert system.stats.requests_shed == 0


# ----------------------------------------------------------------------
# Overload differentiation (the policy-benchmark acceptance shape)
# ----------------------------------------------------------------------
class TestOverloadDifferentiation:
    @pytest.fixture(scope="class")
    def cells(self):
        return {
            name: run_admission_cell(name, duration=400.0)
            for name in ("none", "deadline-aware")
        }

    def test_deadline_aware_beats_none_on_p99_at_equal_cost(self, cells):
        none_run, shed_run = cells["none"], cells["deadline-aware"]
        # The fleet is pinned, so the cost is *byte*-identical.
        assert shed_run.total_cost == none_run.total_cost
        assert shed_run.cost_by_zone == none_run.cost_by_zone
        # ... and shedding is what moves the tail.
        assert shed_run.latency.p99 < none_run.latency.p99
        assert shed_run.latency.mean < none_run.latency.mean
        assert shed_run.stats.requests_shed > 0

    def test_overload_really_overloads(self, cells):
        none_run = cells["none"]
        assert none_run.unserved_requests > none_run.submitted_requests * 0.2


# ----------------------------------------------------------------------
# Golden digests: a pass-through policy is byte-identical
# ----------------------------------------------------------------------
class PassThroughPolicy(AdmissionPolicy):
    """Admit everything, shed nothing: only the admission wiring runs."""

    name = "pass-through"


@pytest.fixture
def pass_through(monkeypatch):
    """Register :class:`PassThroughPolicy` for one test; returns its name."""
    monkeypatch.setitem(ADMISSION_POLICIES, PassThroughPolicy.name, PassThroughPolicy)
    return PassThroughPolicy.name


class TestGoldenDigestNeutrality:
    def test_single_zone_digest_with_pass_through_policy(self, pass_through):
        scenario = stable_workload_scenario("OPT-6.7B", "AS", duration=400.0)
        options = scenario.options()
        options.admission = pass_through
        result = run_serving_experiment(
            SpotServeSystem,
            scenario.model_name,
            scenario.trace,
            scenario.arrival_process(),
            duration=scenario.duration,
            drain_time=200.0,
            options=options,
        )
        digest = hashlib.sha256(result.stats.summary_text().encode()).hexdigest()
        assert digest == SINGLE_ZONE_SHA256
        assert result.stats.requests_rejected == 0
        assert result.stats.requests_shed == 0

    def test_multi_zone_digest_with_pass_through_policy(self, pass_through):
        baseline = run_multi_zone(stream_arrivals=True)
        from repro.experiments.scenarios import multi_zone_fluctuating_scenario

        scenario, arrivals = multi_zone_fluctuating_scenario("OPT-6.7B", duration=600.0)
        options = scenario.options()
        options.admission = pass_through
        result = run_serving_experiment(
            SpotServeSystem,
            scenario.model_name,
            trace=None,
            arrival_process=arrivals,
            duration=scenario.duration,
            drain_time=300.0,
            options=options,
            zones=scenario.zones,
            allow_spot_requests=True,
        )
        digest = hashlib.sha256(result.stats.summary_text().encode()).hexdigest()
        assert digest == MULTI_ZONE_SHA256
        assert result.stats.summary_text() == baseline.stats.summary_text()

    def test_hooks_really_ran(self, monkeypatch, pass_through):
        # Not a vacuous neutrality claim: the pass-through policy's hooks
        # are consulted on every arrival and every adaptation round.
        calls = {"admit": 0, "shed": 0}
        admit, shed = PassThroughPolicy.admit, PassThroughPolicy.shed

        def counting_admit(self, request, signal):
            calls["admit"] += 1
            return admit(self, request, signal)

        def counting_shed(self, queue, signal):
            calls["shed"] += 1
            return shed(self, queue, signal)

        monkeypatch.setattr(PassThroughPolicy, "admit", counting_admit)
        monkeypatch.setattr(PassThroughPolicy, "shed", counting_shed)
        scenario = stable_workload_scenario("OPT-6.7B", "AS", duration=400.0)
        options = scenario.options()
        options.admission = pass_through
        result = run_serving_experiment(
            SpotServeSystem,
            scenario.model_name,
            scenario.trace,
            scenario.arrival_process(),
            duration=scenario.duration,
            drain_time=200.0,
            options=options,
        )
        assert calls["admit"] == result.submitted_requests
        assert calls["shed"] > 0
        digest = hashlib.sha256(result.stats.summary_text().encode()).hexdigest()
        assert digest == SINGLE_ZONE_SHA256


# ----------------------------------------------------------------------
# Extended summary carries the new counters
# ----------------------------------------------------------------------
class TestExtendedSummary:
    def test_counters_in_extended_summary_only(self):
        scenario, arrivals = overload_scenario(
            "OPT-6.7B", duration=400.0, admission="queue-cap"
        )
        result = run_scenario_experiment(
            scenario, arrivals, drain_time=120.0, allow_spot_requests=False
        )
        legacy = result.stats.summary_text()
        assert "requests_rejected" not in legacy
        assert "requests_shed" not in legacy
        extended = result.stats.extended_summary_text()
        assert f"requests_rejected={result.stats.requests_rejected}" in extended
        assert "requests_shed=0" in extended
        assert result.stats.requests_rejected > 0
