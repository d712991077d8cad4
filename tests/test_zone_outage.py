"""Zone-outage fault injection: provider semantics, evacuation, conservation.

The worst case the ROADMAP lists for the multi-zone market is a whole
availability zone going dark.  These tests pin the full chain:

* :class:`~repro.cloud.zone.OutageWindow` validation and scheduling,
* :class:`~repro.cloud.provider.CloudProvider` emitting the ``ZONE_OUTAGE``
  phases, reclaiming every instance in the zone atomically (spot, on-demand
  and still-launching alike) and holding the zone's capacity at zero for the
  window,
* the serving system's evacuation path (pipelines re-placed across the
  surviving zones, evacuation mode toggled on the mapper/planner),
* request conservation: **no request is silently lost** -- every submitted
  request is completed, still queued/in flight, or counted in the
  dropped/rerouted counters -- pinned by a golden sha256 digest of the
  extended stats summary on the canonical ``zone_outage_scenario``.
"""

import hashlib

import pytest

from repro.cloud.instance import InstanceState, Market
from repro.cloud.pricing import PriceSchedule
from repro.cloud.provider import CloudProvider
from repro.cloud.trace import AvailabilityTrace, TraceEvent, TraceEventKind
from repro.cloud.zone import OutageWindow, ZoneSpec
from repro.core.server import SpotServeSystem
from repro.experiments.runner import run_scenario_experiment
from repro.experiments.scenarios import zone_outage_scenario
from repro.llm.spec import get_model
from repro.sim.engine import Simulator
from repro.sim.events import EventType
from repro.workload.arrival import GammaArrivals

#: Golden digest of ``extended_summary_text()`` for the canonical
#: zone-outage scenario (duration 900 s, 30 s warning, drain 300 s).  The
#: extended summary includes the zone_outages / requests_rerouted /
#: requests_dropped counters, so this pins the conservation accounting, not
#: just the serving outcome.  Recorded when the outage subsystem landed;
#: re-recorded when the overload-control counters (requests_rejected /
#: requests_shed, both zero here) joined the extended summary, and again
#: when the fault-injection counters (allocation_refusals /
#: launch_failures / acquisition_retries / early_preemptions /
#: migration_fallbacks / allocation_shortfall, all zero here) joined, and
#: again when the tiered-offload counters (bytes_spilled / bytes_restored /
#: bytes_abandoned / restores / spill_fallbacks, all zero here -- no tier
#: is configured) joined -- the run itself is unchanged each time, which
#: the untouched legacy ``summary_text()`` golden digests prove.
ZONE_OUTAGE_SHA256 = "7b3a94a31add8ce2b081fe89d1c0a296569d27da21957c0b870de9f89c039550"


def next_outage(provider, zone):
    """The next outage window of *zone* that has not ended by the clock."""
    now = provider.simulator.now
    return next((w for w in provider.zones[zone].outages if w.end > now), None)


# ----------------------------------------------------------------------
# OutageWindow / ZoneSpec validation
# ----------------------------------------------------------------------
class TestOutageWindow:
    def test_basic_properties(self):
        window = OutageWindow(start=100.0, duration=50.0, warning=10.0)
        assert window.end == 150.0
        assert window.notice_time == 90.0
        assert window.covers(100.0)
        assert window.covers(149.9)
        assert not window.covers(99.9)
        assert not window.covers(150.0)

    def test_warning_clamped_to_time_zero(self):
        window = OutageWindow(start=5.0, duration=10.0, warning=30.0)
        assert window.notice_time == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OutageWindow(start=-1.0, duration=10.0)
        with pytest.raises(ValueError):
            OutageWindow(start=0.0, duration=0.0)
        with pytest.raises(ValueError):
            OutageWindow(start=0.0, duration=10.0, warning=-1.0)

    def test_zone_spec_rejects_overlapping_outages(self):
        trace = AvailabilityTrace(name="t", initial_instances=1, events=[], duration=500.0)
        with pytest.raises(ValueError, match="overlap"):
            ZoneSpec(
                name="z",
                trace=trace,
                outages=(
                    OutageWindow(start=100.0, duration=50.0),
                    OutageWindow(start=120.0, duration=50.0),
                ),
            )

    def test_zone_spec_sorts_outages_and_outage_at(self):
        trace = AvailabilityTrace(name="t", initial_instances=1, events=[], duration=900.0)
        spec = ZoneSpec(
            name="z",
            trace=trace,
            outages=(
                OutageWindow(start=500.0, duration=50.0),
                OutageWindow(start=100.0, duration=50.0),
            ),
        )
        assert [window.start for window in spec.outages] == [100.0, 500.0]
        assert spec.outage_at(120.0) is spec.outages[0]
        assert spec.outage_at(520.0) is spec.outages[1]
        assert spec.outage_at(300.0) is None


# ----------------------------------------------------------------------
# Provider-level semantics
# ----------------------------------------------------------------------
def outage_zones(warning: float, duration: float = 600.0, trace_events=()):
    hit = ZoneSpec(
        name="zone-a",
        trace=AvailabilityTrace(
            name="a", initial_instances=3, events=list(trace_events), duration=duration
        ),
        capacity=6,
        spot_pricing=PriceSchedule.flat(1.5),
        outages=(OutageWindow(start=200.0, duration=200.0, warning=warning),),
    )
    calm = ZoneSpec(
        name="zone-b",
        trace=AvailabilityTrace(name="b", initial_instances=2, events=[], duration=duration),
        capacity=6,
        spot_pricing=PriceSchedule.flat(1.9),
    )
    return (hit, calm)


class TestProviderOutage:
    def record_events(self, simulator, event_type):
        seen = []
        simulator.on(event_type, lambda e: seen.append(e))
        return seen

    def test_unannounced_outage_kills_every_instance_atomically(self):
        simulator = Simulator()
        provider = CloudProvider(simulator, zones=outage_zones(warning=0.0))
        outage_events = self.record_events(simulator, EventType.ZONE_OUTAGE)
        notices = self.record_events(simulator, EventType.PREEMPTION_NOTICE)

        simulator.run(until=199.9)
        assert provider.alive_in_zone("zone-a") == 3
        simulator.run(until=200.1)
        assert provider.alive_in_zone("zone-a") == 0
        assert provider.alive_in_zone("zone-b") == 2
        # Unannounced: no spot grace, only the down + (later) restored phases.
        assert not notices
        phases = [e.payload["phase"] for e in outage_events]
        assert phases == ["down"]
        dead = provider.instances_in_zone("zone-a")
        assert all(inst.state is InstanceState.PREEMPTED for inst in dead)
        assert outage_events[0].payload["failed_instances"] == sorted(
            dead, key=lambda inst: inst.instance_id
        )
        assert provider.preempted_count == 3
        assert provider.zone_outage_count == 1

    def test_warning_issues_grace_notices_with_outage_deadline(self):
        simulator = Simulator()
        provider = CloudProvider(simulator, zones=outage_zones(warning=30.0))
        notices = self.record_events(simulator, EventType.PREEMPTION_NOTICE)
        outage_events = self.record_events(simulator, EventType.ZONE_OUTAGE)

        simulator.run(until=170.5)
        assert [e.payload["deadline"] for e in notices] == [200.0, 200.0, 200.0]
        assert all(e.payload["instance"].zone == "zone-a" for e in notices)
        assert [e.payload["phase"] for e in outage_events] == ["warning"]
        # The graced instances stay usable until the deadline...
        assert provider.alive_in_zone("zone-a") == 3
        simulator.run(until=200.5)
        # ...and are all gone at the outage start.
        assert provider.alive_in_zone("zone-a") == 0
        assert [e.payload["phase"] for e in outage_events] == ["warning", "down"]

    def test_capacity_is_zero_during_the_window(self):
        simulator = Simulator()
        provider = CloudProvider(
            simulator,
            zones=outage_zones(
                warning=0.0,
                trace_events=[TraceEvent(250.0, TraceEventKind.ACQUIRE, 2)],
            ),
            allow_spot_requests=True,
        )
        simulator.run(until=260.0)
        # The trace ACQUIRE inside the window granted nothing...
        assert provider.alive_in_zone("zone-a") == 0
        assert provider.capacity_remaining("zone-a") == 0
        assert provider.zone_is_down("zone-a")
        # ...and explicit allocation requests are refused too.
        assert provider.request_spot(1, zone="zone-a") == []
        assert provider.request_on_demand(1, zone="zone-a") == []
        simulator.run(until=401.0)
        assert not provider.zone_is_down("zone-a")
        assert provider.capacity_remaining("zone-a") == 6
        granted = provider.request_on_demand(1, zone="zone-a")
        assert len(granted) == 1

    def test_outage_takes_down_on_demand_and_launching_instances(self):
        simulator = Simulator()
        provider = CloudProvider(simulator, zones=outage_zones(warning=0.0))
        ready_events = self.record_events(simulator, EventType.ACQUISITION_READY)

        simulator.run(until=100.0)
        (on_demand,) = provider.request_on_demand(1, zone="zone-a")
        simulator.run(until=180.0)
        # Launched 20 s before the outage; startup delay is 40 s, so this
        # instance dies mid-launch and must never be announced as ready.
        (launching,) = provider.request_on_demand(1, zone="zone-a")
        simulator.run(until=300.0)
        assert on_demand.market is Market.ON_DEMAND
        assert not on_demand.is_alive
        assert not launching.is_alive
        assert launching.ready_time is None
        announced = {e.payload["instance"].instance_id for e in ready_events}
        assert launching.instance_id not in announced
        # Billing stopped at the outage for both.
        assert on_demand.termination_time == 200.0
        assert launching.termination_time == 200.0

    def test_trace_preempt_of_launching_instance_does_not_crash(self):
        # Regression (found while wiring the ready-event cancellation): a
        # trace PREEMPT that picks a still-launching spot instance used to
        # leave its ACQUISITION_READY event pending; it then fired after the
        # reclaim and mark_ready raised on the dead instance.
        launching_victim_seen = False
        for victim_seed in range(6):
            simulator = Simulator()
            zone = ZoneSpec(
                name="z",
                trace=AvailabilityTrace(
                    name="t",
                    initial_instances=1,
                    events=[TraceEvent(10.0, TraceEventKind.PREEMPT, 1)],
                    duration=200.0,
                ),
            )
            provider = CloudProvider(
                simulator,
                zones=[zone],
                allow_spot_requests=True,
                victim_seed=victim_seed,
            )
            ready_events = self.record_events(simulator, EventType.ACQUISITION_READY)
            simulator.run(until=5.0)
            (extra,) = provider.request_spot(1, zone="z")  # ready would be t=45
            simulator.run(until=100.0)  # PREEMPT at t=10 picks one of the two
            if not extra.is_alive:
                launching_victim_seen = True
                assert extra.ready_time is None
                announced = {e.payload["instance"].instance_id for e in ready_events}
                assert extra.instance_id not in announced
        assert launching_victim_seen, "no seed ever picked the launching victim"

    def test_avoid_zones_skips_doomed_zone_in_spread_allocations(self):
        simulator = Simulator()
        provider = CloudProvider(
            simulator, zones=outage_zones(warning=30.0), allow_spot_requests=True
        )
        simulator.run(until=175.0)  # warning fired; zone-a still sells capacity
        assert provider.capacity_remaining("zone-a") > 0
        granted = provider.request_spot(2, avoid_zones=("zone-a",))
        assert granted and all(inst.zone == "zone-b" for inst in granted)

    def test_next_outage_lookup(self):
        simulator = Simulator()
        provider = CloudProvider(simulator, zones=outage_zones(warning=0.0))
        window = next_outage(provider, "zone-a")
        assert window is not None and window.start == 200.0
        assert next_outage(provider, "zone-b") is None
        simulator.run(until=450.0)
        assert next_outage(provider, "zone-a") is None


# ----------------------------------------------------------------------
# System-level evacuation
# ----------------------------------------------------------------------
class TestEvacuation:
    def build_system(self, warning=30.0):
        simulator = Simulator()
        provider = CloudProvider(simulator, zones=outage_zones(warning=warning))
        system = SpotServeSystem(
            simulator, provider, get_model("OPT-6.7B"), initial_arrival_rate=0.3
        )
        system.submit_arrival_process(GammaArrivals(rate=0.3, cv=2.0, seed=1), 500.0)
        system.initialize()
        return simulator, provider, system

    def test_fleet_evacuates_to_surviving_zone(self):
        simulator, provider, system = self.build_system()
        simulator.run(until=150.0)
        zones_in_use = {
            provider.zone_of(instance_id)
            for pipeline in system.dataplane.pipelines
            for instance_id in pipeline.assignment.instance_ids
        }
        assert "zone-a" in zones_in_use  # the doomed zone is load-bearing
        simulator.run(until=300.0)
        assert system.dataplane.pipelines, "serving must resume on the survivors"
        zones_after = {
            provider.zone_of(instance_id)
            for pipeline in system.dataplane.pipelines
            for instance_id in pipeline.assignment.instance_ids
        }
        assert zones_after == {"zone-b"}

    def test_evacuation_mode_toggles_with_the_window(self):
        simulator, provider, system = self.build_system()
        assert not system.device_mapper.evacuation_mode
        simulator.run(until=171.0)  # warning fired at 170
        assert system.device_mapper.evacuation_mode
        assert system.migration_planner.evacuation_mode
        assert system._evacuating_zones == {"zone-a"}
        simulator.run(until=300.0)  # zone dark
        assert system.device_mapper.evacuation_mode
        simulator.run(until=401.0)  # restored at 400
        assert not system.device_mapper.evacuation_mode
        assert not system.migration_planner.evacuation_mode
        assert system._evacuating_zones == set()

    def test_unannounced_outage_reroutes_in_flight_requests(self):
        simulator, provider, system = self.build_system(warning=0.0)
        simulator.run(until=600.0)
        stats = system.stats
        assert stats.zone_outages == 1
        # The atomic kill tore down in-flight work; none of it was lost.
        assert stats.requests_dropped == 0
        assert (
            system.submitted_requests
            == stats.completed_count
            + system.unfinished_request_count()
            + stats.requests_dropped
        )

    def test_conservation_holds_at_every_probe_point(self):
        simulator, provider, system = self.build_system()
        for until in (150.0, 199.0, 201.0, 230.0, 300.0, 401.0, 600.0, 900.0):
            simulator.run(until=until)
            unfinished = system.unfinished_request_count()
            assert (
                system.submitted_requests
                == system.stats.completed_count + unfinished + system.stats.requests_dropped
            ), f"conservation violated at t={until}"


# ----------------------------------------------------------------------
# Golden conservation regression (the canonical scenario)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_result():
    scenario, arrivals = zone_outage_scenario("OPT-6.7B")
    return run_scenario_experiment(scenario, arrivals, drain_time=300.0)


class TestAutoscalerAvoidsDoomedZone:
    def test_backfill_never_lands_in_a_zone_under_warning(self):
        # Regression: with a long warning, the workload checks between the
        # warning and the outage start used to buy replacement capacity in
        # the *dying* zone (it is the cheapest and its provider capacity
        # only reads zero inside the window), starving the evacuation's
        # back-fill.  Doomed zones must read as full to the autoscaler.
        scenario, arrivals = zone_outage_scenario("OPT-6.7B", warning=90.0)
        result = run_scenario_experiment(scenario, arrivals, drain_time=300.0)
        outage = scenario.zones[0].outages[0]
        for action in result.stats.autoscale_actions:
            if outage.notice_time <= action.time < outage.end:
                assert "us-east-1a" not in action.acquired, (
                    f"acquired in the doomed zone at t={action.time}: "
                    f"{action.acquired}"
                )
        # The back-fill itself still happened, in the surviving zones.
        backfill = [
            action
            for action in result.stats.autoscale_actions
            if outage.notice_time <= action.time < outage.end and action.acquired
        ]
        assert backfill, "the evacuation must trigger a back-fill"


class TestConservationGolden:
    def test_zero_lost_requests(self, golden_result):
        stats = golden_result.stats
        assert golden_result.submitted_requests > 1000
        assert stats.requests_dropped == 0
        assert golden_result.completed_requests == golden_result.submitted_requests
        assert stats.zone_outages == 1
        # The outage really disrupted serving (this is not a vacuous pass).
        assert stats.requests_rerouted > 0
        assert any(r.reason == "zone-outage" for r in stats.reconfigurations)

    def test_extended_digest_is_pinned(self, golden_result):
        text = golden_result.stats.extended_summary_text()
        assert "zone_outages=1" in text
        assert "requests_dropped=0" in text
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == ZONE_OUTAGE_SHA256

    def test_digest_is_deterministic_across_runs(self, golden_result):
        scenario, arrivals = zone_outage_scenario("OPT-6.7B")
        rerun = run_scenario_experiment(scenario, arrivals, drain_time=300.0)
        assert (
            rerun.stats.extended_summary_text()
            == golden_result.stats.extended_summary_text()
        )
        assert rerun.cost_by_zone == golden_result.cost_by_zone

    def test_new_counters_stay_out_of_the_legacy_summary(self, golden_result):
        # The pre-outage golden digests pin summary_text() byte-for-byte, so
        # the new counters must only appear in the extended summary.
        legacy = golden_result.stats.summary_text()
        assert "zone_outages" not in legacy
        assert "requests_rerouted" not in legacy
        assert "requests_dropped" not in legacy
        extended = golden_result.stats.extended_summary_text()
        assert set(legacy.split("\n")) <= set(extended.split("\n"))
        assert "zone_outages=" in extended
