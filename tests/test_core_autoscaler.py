"""Tests for the autoscaling policies and the zone-arbitraging autoscaler."""

import pytest

from repro.core.autoscaler import (
    COST_AWARE_HEADROOM,
    MAX_QUEUE_DELAY,
    MIN_PROBE_INSTANCES,
    SCALE_DOWN_UTILIZATION,
    TARGET_UTILIZATION,
    UTILIZATION_DEAD_BAND,
    Autoscaler,
    AutoscaleSignal,
    CostAwarePolicy,
    QueueLatencyPolicy,
    TargetUtilizationPolicy,
    ZoneView,
    make_autoscaler,
    make_policy,
)
from repro.core.config import ConfigurationSpace
from repro.core.controller import ParallelizationController
from repro.llm.costmodel import LatencyModel
from repro.llm.hardware import T4
from repro.llm.memory import MemoryModel
from repro.llm.spec import get_model


def make_signal(
    time=0.0,
    arrival_rate=1.0,
    serving_throughput=2.0,
    queue_depth=0,
    current_instances=4,
    pending_instances=0,
    spot_requests_allowed=True,
    zones=(),
):
    return AutoscaleSignal(
        time=time,
        arrival_rate=arrival_rate,
        serving_throughput=serving_throughput,
        queue_depth=queue_depth,
        current_instances=current_instances,
        gpus_per_instance=4,
        pending_instances=pending_instances,
        spot_requests_allowed=spot_requests_allowed,
        zones=tuple(zones),
    )


def zone(name, room=4, spot=1.9, on_demand=3.9, releasable=2):
    return ZoneView(
        name=name,
        capacity_remaining=room,
        spot_price=spot,
        on_demand_price=on_demand,
        releasable=releasable,
    )


class TestTargetUtilizationPolicy:
    def test_holds_inside_dead_band(self):
        assert (TARGET_UTILIZATION, UTILIZATION_DEAD_BAND) == (0.7, 0.1)
        policy = TargetUtilizationPolicy()
        signal = make_signal(arrival_rate=1.5, serving_throughput=2.0)  # util 0.75
        assert policy.desired_instances(signal) == signal.current_instances

    def test_scales_up_proportionally(self):
        policy = TargetUtilizationPolicy()
        # Utilization 1.0 at 4 instances -> needs ceil(4 / 0.7) = 6 to sit
        # at or below 70%.
        signal = make_signal(arrival_rate=2.0, serving_throughput=2.0, current_instances=4)
        assert policy.desired_instances(signal) == 6

    def test_scales_down_when_idle(self):
        policy = TargetUtilizationPolicy()
        signal = make_signal(arrival_rate=0.2, serving_throughput=2.0, current_instances=10)
        assert policy.desired_instances(signal) < 10

    def test_no_throughput_means_grow(self):
        policy = TargetUtilizationPolicy()
        signal = make_signal(serving_throughput=0.0, arrival_rate=1.0, current_instances=3)
        assert policy.desired_instances(signal) == 4


class TestQueueLatencyPolicy:
    def test_holds_when_queue_drains_fast(self):
        assert MAX_QUEUE_DELAY == 60.0
        policy = QueueLatencyPolicy()
        signal = make_signal(queue_depth=10, serving_throughput=1.0, arrival_rate=0.9)
        assert policy.desired_instances(signal) == signal.current_instances

    def test_scales_up_on_deep_queue(self):
        policy = QueueLatencyPolicy()
        # 300 queued at 1 req/s -> 300s of backlog, 5x the bound.
        signal = make_signal(queue_depth=300, serving_throughput=1.0, current_instances=4)
        assert policy.desired_instances(signal) == 8

    def test_scales_down_when_empty_and_underutilized(self):
        assert SCALE_DOWN_UTILIZATION == 0.5
        policy = QueueLatencyPolicy()
        signal = make_signal(queue_depth=0, arrival_rate=0.1, serving_throughput=1.0,
                             current_instances=6)
        assert policy.desired_instances(signal) == 5

    def test_stalled_system_with_backlog_grows(self):
        policy = QueueLatencyPolicy()
        signal = make_signal(queue_depth=5, serving_throughput=0.0, current_instances=2)
        assert policy.desired_instances(signal) == 3


@pytest.fixture(scope="module")
def controller():
    model = get_model("OPT-6.7B")
    latency_model = LatencyModel(model, T4)
    memory_model = MemoryModel(model, T4)
    space = ConfigurationSpace(model, memory_model, gpus_per_instance=4)
    return ParallelizationController(space, latency_model)


class TestCostAwarePolicy:
    def test_picks_smallest_sustaining_fleet(self, controller):
        policy = CostAwarePolicy(controller)
        signal = make_signal(arrival_rate=0.3, current_instances=8)
        desired = policy.desired_instances(signal)
        assert 1 <= desired < 8
        # The chosen fleet really does sustain the demand with headroom.
        decision = controller.propose(desired, signal.arrival_rate)
        assert decision.estimate.throughput >= 0.3 * COST_AWARE_HEADROOM

    def test_higher_rate_needs_more_instances(self, controller):
        policy = CostAwarePolicy(controller)
        low = policy.desired_instances(make_signal(arrival_rate=0.2))
        high = policy.desired_instances(make_signal(arrival_rate=3.0))
        assert high > low

    def test_unreachable_demand_picks_smallest_max_throughput_fleet(self):
        # Regression: when no fleet sustains the demand, pay for the
        # smallest fleet that reaches the best attainable throughput, not
        # for the largest fleet that happens to have a (slower) config.
        from repro.core.config import ParallelConfig
        from repro.core.controller import ConfigEstimate

        fast_small = ParallelConfig(2, 1, 4, 2)
        slow_big = ParallelConfig(1, 4, 4, 2)
        estimates = {
            fast_small: ConfigEstimate(fast_small, 1.0, 1.0, 30.0, 2),
            slow_big: ConfigEstimate(slow_big, 2.0, 2.0, 25.0, 4),
        }

        class StubSpace:
            def feasible_configs(self, cap):
                return list(estimates)

        class StubController:
            config_space = StubSpace()

            def estimate(self, config, rate):
                return estimates[config]

        policy = CostAwarePolicy(StubController())
        desired = policy.desired_instances(make_signal(arrival_rate=50.0))
        assert desired == 2

    def test_requires_controller(self):
        with pytest.raises(ValueError):
            make_policy("cost-aware")


class TestAutoscaler:
    def _autoscaler(self, **kwargs):
        kwargs.setdefault("min_instances", 1)
        kwargs.setdefault("max_instances", 10)
        kwargs.setdefault("cooldown", 60.0)
        return Autoscaler(TargetUtilizationPolicy(), **kwargs)

    def test_noop_when_at_desired_size(self):
        scaler = self._autoscaler()
        signal = make_signal(arrival_rate=1.4, serving_throughput=2.0)  # util at target
        decision = scaler.plan(signal)
        assert decision.is_noop

    def test_acquires_cheapest_zone_first(self):
        scaler = self._autoscaler()
        zones = [zone("pricey", spot=3.0, room=8), zone("cheap", spot=1.0, room=2),
                 zone("mid", spot=2.0, room=8)]
        signal = make_signal(arrival_rate=2.6, serving_throughput=2.0,
                             current_instances=4, zones=zones)
        decision = scaler.plan(signal)  # wants 8, delta +4
        assert decision.acquire == {"cheap": 2, "mid": 2}
        assert decision.release == {}

    def test_releases_most_expensive_zone_first(self):
        scaler = self._autoscaler()
        zones = [zone("cheap", spot=1.0, releasable=4), zone("pricey", spot=3.0)]
        signal = make_signal(arrival_rate=0.25, serving_throughput=2.0,
                             current_instances=6, zones=zones)
        decision = scaler.plan(signal)  # wants ~2, delta -4
        assert decision.release["pricey"] == 2
        assert decision.release["cheap"] == 2

    def test_bounds_clamp_desired_fleet(self):
        scaler = self._autoscaler(max_instances=5)
        zones = [zone("z", room=20)]
        signal = make_signal(arrival_rate=10.0, serving_throughput=2.0,
                             current_instances=4, zones=zones)
        decision = scaler.plan(signal)
        assert decision.desired_instances == 5
        assert sum(decision.acquire.values()) == 1
        assert decision.release == {}

    def test_cooldown_suppresses_consecutive_actions(self):
        scaler = self._autoscaler(cooldown=60.0)
        zones = [zone("z", room=20)]
        grow = make_signal(time=0.0, arrival_rate=2.0, serving_throughput=2.0,
                           current_instances=4, zones=zones)
        assert not scaler.plan(grow).is_noop
        again = make_signal(time=30.0, arrival_rate=2.0, serving_throughput=2.0,
                            current_instances=4, zones=zones)
        assert scaler.plan(again).is_noop
        later = make_signal(time=61.0, arrival_rate=2.0, serving_throughput=2.0,
                            current_instances=4, zones=zones)
        assert not scaler.plan(later).is_noop

    def test_scale_down_cooldown_is_longer(self):
        scaler = self._autoscaler(cooldown=60.0)  # scale-down window 120s
        zones = [zone("z", releasable=8, room=4)]
        grow = make_signal(time=0.0, arrival_rate=2.0, serving_throughput=2.0,
                           current_instances=4, zones=zones)
        assert not scaler.plan(grow).is_noop
        shrink = make_signal(time=70.0, arrival_rate=0.25, serving_throughput=2.0,
                             current_instances=8, zones=zones)
        assert scaler.plan(shrink).is_noop  # 70s < 120s scale-down window
        shrink_late = make_signal(time=130.0, arrival_rate=0.25, serving_throughput=2.0,
                                  current_instances=8, zones=zones)
        assert not scaler.plan(shrink_late).is_noop

    @pytest.mark.parametrize("cooldown", [15.0, 45.0, 90.0])
    def test_scale_down_waits_twice_the_cooldown(self, cooldown):
        scaler = self._autoscaler(cooldown=cooldown)
        zones = [zone("z", releasable=8, room=4)]
        grow = make_signal(time=0.0, arrival_rate=2.0, serving_throughput=2.0,
                           current_instances=4, zones=zones)
        assert not scaler.plan(grow).is_noop

        def shrink(time):
            return scaler.plan(make_signal(time=time, arrival_rate=0.25,
                                           serving_throughput=2.0,
                                           current_instances=8, zones=zones))

        assert shrink(2.0 * cooldown - 1.0).is_noop
        assert not shrink(2.0 * cooldown).is_noop

    def test_acquire_uses_on_demand_prices_when_spot_requests_disabled(self):
        # Regression: with spot requests off every grant lands on-demand, so
        # "cheapest zone" must mean cheapest *on-demand* zone.
        scaler = self._autoscaler()
        zones = [
            zone("spot-cheap", spot=1.5, on_demand=5.0, room=8),
            zone("od-cheap", spot=1.9, on_demand=3.0, room=8),
        ]
        signal = make_signal(arrival_rate=2.6, serving_throughput=2.0,
                             current_instances=4, spot_requests_allowed=False,
                             zones=zones)
        decision = scaler.plan(signal)
        assert decision.acquire == {"od-cheap": 4}

    def test_release_uses_on_demand_prices_when_spot_requests_disabled(self):
        # Regression: an on-demand fleet must shed from the zone with the
        # highest on-demand price, whatever the spot quotes say.
        scaler = self._autoscaler()
        zones = [
            zone("spot-pricey", spot=2.0, on_demand=3.0, releasable=4),
            zone("od-pricey", spot=1.5, on_demand=5.0, releasable=4),
        ]
        signal = make_signal(arrival_rate=0.25, serving_throughput=2.0,
                             current_instances=8, spot_requests_allowed=False,
                             zones=zones)
        decision = scaler.plan(signal)
        assert list(decision.release)[0] == "od-pricey"

    def test_cancel_last_action_restores_cooldown(self):
        # Regression: a decision whose grants all failed must not suppress
        # scaling for a whole cooldown window.
        scaler = self._autoscaler(cooldown=60.0)
        zones = [zone("z", room=20)]
        grow = make_signal(time=0.0, arrival_rate=2.0, serving_throughput=2.0,
                           current_instances=4, zones=zones)
        assert not scaler.plan(grow).is_noop
        scaler.cancel_last_action(0.0)  # executor reports: nothing applied
        retry = make_signal(time=30.0, arrival_rate=2.0, serving_throughput=2.0,
                            current_instances=4, zones=zones)
        assert not scaler.plan(retry).is_noop

    def test_launching_instances_are_not_rerequested(self):
        # Regression: capacity already granted (still inside its startup
        # delay) must count toward the committed fleet, or every round
        # re-acquires the same delta and the fleet overshoots.
        scaler = self._autoscaler(cooldown=0.0)
        zones = [zone("z", room=20)]
        first = scaler.plan(
            make_signal(arrival_rate=2.6, serving_throughput=2.0,
                        current_instances=4, zones=zones)
        )
        assert first.acquire == {"z": 4}
        followup = scaler.plan(
            make_signal(time=30.0, arrival_rate=2.6, serving_throughput=2.0,
                        current_instances=4, pending_instances=4, zones=zones)
        )
        assert followup.is_noop

    def test_release_spills_past_pinned_zones(self):
        # Regression: a pricey zone whose instances all host live pipelines
        # (releasable=0) must not absorb the whole release request.
        scaler = self._autoscaler()
        zones = [
            zone("pricey", spot=3.0, releasable=0),
            zone("cheap", spot=1.0, releasable=2),
        ]
        signal = make_signal(arrival_rate=0.25, serving_throughput=2.0,
                             current_instances=6, zones=zones)
        decision = scaler.plan(signal)
        assert decision.release == {"cheap": 2}

    def test_nothing_releasable_does_not_burn_cooldown(self):
        scaler = self._autoscaler()
        pinned = [zone("z", releasable=0)]
        shrink = make_signal(arrival_rate=0.25, serving_throughput=2.0,
                             current_instances=4, zones=pinned)
        assert scaler.plan(shrink).is_noop
        # A release becomes possible immediately afterwards: no cooldown in
        # the way because the failed attempt never counted as an action.
        free = [zone("z", releasable=2)]
        retry = make_signal(time=1.0, arrival_rate=0.25, serving_throughput=2.0,
                            current_instances=4, zones=free)
        assert scaler.plan(retry).release == {"z": 2}

    def test_no_capacity_anywhere_is_noop(self):
        scaler = self._autoscaler()
        zones = [zone("full", room=0)]
        signal = make_signal(arrival_rate=2.0, serving_throughput=2.0,
                             current_instances=4, zones=zones)
        assert scaler.plan(signal).is_noop

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"min_instances": 5, "max_instances": 2}, id="max-below-min"),
            pytest.param({"cooldown": -1.0}, id="negative-cooldown"),
            pytest.param({"cooldown": float("nan")}, id="nan-cooldown"),
            pytest.param({"cooldown": float("inf")}, id="inf-cooldown"),
        ],
    )
    def test_invalid_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            self._autoscaler(**kwargs)


class TestFactories:
    def test_make_policy_names(self, controller):
        assert make_policy("target-utilization").name == "target-utilization"
        assert make_policy("queue_latency").name == "queue-latency"
        assert make_policy("cost-aware", controller=controller).name == "cost-aware"

    def test_make_policy_unknown(self):
        with pytest.raises(KeyError):
            make_policy("magic")

    def test_make_autoscaler_passes_params(self, controller):
        scaler = make_autoscaler(
            "cost-aware",
            controller=controller,
            min_instances=2,
            max_instances=12,
            cooldown=90.0,
        )
        assert scaler.min_instances == 2
        assert scaler.max_instances == 12
        assert scaler.cooldown == 90.0

    def test_cost_aware_probe_reaches_the_fleet_bound(self, controller):
        # The probe covers every fleet the bounds allow, and never fewer
        # than MIN_PROBE_INSTANCES.
        assert MIN_PROBE_INSTANCES == 32
        small = make_autoscaler("cost-aware", controller=controller, max_instances=12)
        large = make_autoscaler("cost-aware", controller=controller, max_instances=36)
        assert small.policy.max_probe_instances == 32
        assert large.policy.max_probe_instances == 36


class TestCostAwareSweepCache:
    """The cached rate-independent sweep must not change any decision."""

    @staticmethod
    def uncached_desired(controller, policy, signal):
        """The pre-cache implementation: re-sweep with the signal's rate."""
        demand = signal.arrival_rate * COST_AWARE_HEADROOM
        cap = policy.max_probe_instances
        best_by_count = {}
        for config in controller.config_space.feasible_configs(cap):
            estimate = controller.estimate(config, signal.arrival_rate)
            if estimate.execution_latency == float("inf"):
                continue
            n = estimate.num_instances
            best_by_count[n] = max(best_by_count.get(n, 0.0), estimate.throughput)
        best_feasible = None
        reachable_best = 0.0
        for count in range(1, cap + 1):
            if count in best_by_count and best_by_count[count] > reachable_best:
                reachable_best = best_by_count[count]
                best_feasible = count
            if best_feasible is not None and reachable_best >= demand:
                return count
        return best_feasible if best_feasible is not None else max(signal.current_instances, 1)

    def test_cached_decisions_match_uncached_across_rates(self, controller):
        policy = CostAwarePolicy(controller)
        for rate in (0.05, 0.21, 0.3501, 0.77, 1.4142, 2.9, 5.0, 11.0, 40.0):
            signal = make_signal(arrival_rate=rate, current_instances=6)
            assert policy.desired_instances(signal) == self.uncached_desired(
                controller, policy, signal
            ), f"divergence at rate {rate}"

    def test_repeated_rounds_hit_the_cache(self, controller):
        policy = CostAwarePolicy(controller)
        policy.desired_instances(make_signal(arrival_rate=0.4))
        table = policy._best_by_count
        assert table
        policy.desired_instances(make_signal(arrival_rate=0.9))
        policy.desired_instances(make_signal(arrival_rate=2.2))
        assert policy._best_by_count is table  # swept once
