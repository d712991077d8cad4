"""End-to-end test of the three-zone fluctuating-workload scenario.

Covers the ISSUE acceptance criteria: the scenario runs deterministically
end to end, the autoscaler changes the fleet size at least once, and
cross-zone migration is priced differently from intra-zone migration.
"""

import pytest

from repro.core.server import SpotServeSystem
from repro.experiments.runner import run_serving_experiment
from repro.experiments.scenarios import (
    multi_zone_fluctuating_scenario,
    three_zone_market,
)
from repro.sim.network import NetworkSpec


@pytest.fixture(scope="module")
def result():
    scenario, arrivals = multi_zone_fluctuating_scenario("OPT-6.7B", duration=600.0)
    return run_serving_experiment(
        SpotServeSystem,
        scenario.model_name,
        trace=None,
        arrival_process=arrivals,
        duration=scenario.duration,
        drain_time=300.0,
        options=scenario.options(),
        zones=scenario.zones,
        allow_spot_requests=True,
    )


class TestThreeZoneScenario:
    def test_zones_have_distinct_character(self):
        zones = three_zone_market()
        names = [zone.name for zone in zones]
        assert len(set(names)) == 3
        prices = {zone.name: zone.spot_pricing.price_at(0.0) for zone in zones}
        assert len(set(prices.values())) == 3
        # The cheap zone spikes mid-run (the capacity-crunch event).
        cheap = min(prices, key=prices.get)
        spiking = next(zone for zone in zones if zone.name == cheap)
        assert spiking.spot_pricing.changes

    def test_serves_the_workload(self, result):
        assert result.submitted_requests > 100
        assert result.completion_ratio > 0.95

    def test_autoscaler_changes_fleet_size(self, result):
        actions = result.stats.autoscale_actions
        assert len(actions) >= 1
        assert any(action.delta != 0 for action in actions)
        # Growth is arbitraged into actual zone acquisitions.
        acquired = sum(sum(a.acquired.values()) for a in actions)
        assert acquired >= 1

    def test_cost_is_split_across_zones(self, result):
        costs = result.cost_by_zone
        assert set(costs) == {"us-east-1a", "us-east-1b", "us-west-2a"}
        assert all(cost > 0 for cost in costs.values())
        assert result.total_cost == pytest.approx(sum(costs.values()))

    def test_reconfigurations_happened_under_preemption(self, result):
        assert result.stats.preemption_notices >= 1
        assert len(result.stats.reconfigurations) >= 1

    def test_cross_zone_migration_priced_differently(self):
        spec = NetworkSpec()
        assert spec.cross_zone_bandwidth < spec.inter_instance_bandwidth
        assert spec.cross_zone_latency > spec.per_transfer_latency
