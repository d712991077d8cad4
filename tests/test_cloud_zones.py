"""Tests for the multi-zone spot market: zones, price schedules, provider."""

from collections import Counter

import numpy as np
import pytest

from repro.cloud.instance import DEFAULT_ZONE, G4DN_12XLARGE, Market
from repro.cloud.manager import InstanceManager
from repro.cloud.pricing import BillingRecord, PriceSchedule
from repro.cloud.provider import CloudProvider
from repro.cloud.trace import AvailabilityTrace, TraceEvent, TraceEventKind
from repro.cloud.zone import ZoneSpec, single_zone, validate_zones
from repro.sim.engine import Simulator
from repro.sim.events import EventType
from repro.sim.network import NetworkModel, NetworkSpec, Transfer
from repro.sim.rng import derive_seed

from oracles.network import PerTransferNetworkModel, is_local


def make_trace(name="z", initial=2, events=(), duration=600.0):
    return AvailabilityTrace(
        name=name, initial_instances=initial, events=list(events), duration=duration
    )


def three_zones():
    return [
        ZoneSpec(
            name="alpha",
            trace=make_trace("a", initial=2, events=[TraceEvent(100.0, TraceEventKind.PREEMPT, 1)]),
            capacity=4,
            spot_pricing=PriceSchedule(base_price=1.0, changes=((200.0, 3.0),)),
        ),
        ZoneSpec(name="beta", trace=make_trace("b", initial=2), capacity=3,
                 spot_pricing=PriceSchedule.flat(1.5)),
        ZoneSpec(name="gamma", trace=make_trace("c", initial=1), capacity=2,
                 spot_pricing=PriceSchedule.flat(2.5)),
    ]


class TestPriceSchedule:
    def test_flat_schedule(self):
        schedule = PriceSchedule.flat(1.9)
        assert schedule.changes == ()
        assert schedule.price_at(0.0) == 1.9
        assert schedule.price_at(1e6) == 1.9

    def test_price_changes_apply_from_their_timestamp(self):
        schedule = PriceSchedule(base_price=1.0, changes=((100.0, 2.0), (200.0, 0.5)))
        assert schedule.price_at(99.9) == 1.0
        assert schedule.price_at(100.0) == 2.0
        assert schedule.price_at(250.0) == 0.5

    def test_changes_are_sorted(self):
        schedule = PriceSchedule(base_price=1.0, changes=((200.0, 0.5), (100.0, 2.0)))
        assert schedule.price_at(150.0) == 2.0

    def test_cost_between_integrates_pieces(self):
        schedule = PriceSchedule(base_price=1.0, changes=((1800.0, 3.0),))
        # Half an hour at $1/h plus half an hour at $3/h.
        assert schedule.cost_between(0.0, 3600.0) == pytest.approx(2.0)

    def test_cost_between_empty_interval(self):
        schedule = PriceSchedule.flat(2.0)
        assert schedule.cost_between(50.0, 50.0) == 0.0
        assert schedule.cost_between(60.0, 50.0) == 0.0

    @pytest.mark.parametrize(
        "start, end, price",
        [
            (0.0, 3600.0, 1.9),
            (12.3, 4567.89, 3.06),
            (1e-3, 1e6 + 0.1, 0.7),
            (250.0, 100.0, 2.0),
        ],
    )
    def test_a_flat_bill_is_one_product(self, start, end, price):
        # One billing path for every record: at a flat price it accrues the
        # same float as the hours-times-price product.
        record = BillingRecord("i-0", Market.SPOT, start, PriceSchedule.flat(price), end=end)
        assert record.cost(end) == max(end - start, 0.0) / 3600.0 * price

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            PriceSchedule(base_price=-1.0)
        with pytest.raises(ValueError):
            PriceSchedule(base_price=1.0, changes=((10.0, -2.0),))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda v: PriceSchedule(base_price=v), id="base_price"),
            pytest.param(lambda v: PriceSchedule(1.0, changes=((v, 2.0),)), id="change_time"),
            pytest.param(lambda v: PriceSchedule(1.0, changes=((10.0, v),)), id="change_price"),
        ],
    )
    def test_non_finite_value_rejected(self, build, value):
        # A ``nan`` price used to pass and turn the run's total cost into ``nan``.
        with pytest.raises(ValueError):
            build(value)


class TestZoneSpec:
    def test_capacity_must_cover_initial_fleet(self):
        with pytest.raises(ValueError):
            ZoneSpec(name="tiny", trace=make_trace(initial=5), capacity=3)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ZoneSpec(name="", trace=make_trace())

    def test_default_schedules_use_instance_type_prices(self):
        zone = ZoneSpec(name="z", trace=make_trace())
        assert zone.spot_schedule(G4DN_12XLARGE).price_at(0.0) == pytest.approx(1.9)
        assert zone.on_demand_schedule(G4DN_12XLARGE).price_at(0.0) == pytest.approx(3.9)

    def test_validate_rejects_duplicates_and_empty(self):
        zone = ZoneSpec(name="z", trace=make_trace())
        with pytest.raises(ValueError):
            validate_zones([zone, zone])
        with pytest.raises(ValueError):
            validate_zones([])

    def test_single_zone_wraps_trace(self):
        zones = single_zone(make_trace())
        assert len(zones) == 1
        assert zones[0].name == DEFAULT_ZONE
        assert zones[0].capacity is None


class TestMultiZoneProvider:
    def test_initial_fleet_spans_zones(self):
        sim = Simulator()
        provider = CloudProvider(sim, zones=three_zones())
        assert len(provider.usable_instances()) == 5
        assert provider.alive_in_zone("alpha") == 2
        assert provider.alive_in_zone("beta") == 2
        assert provider.alive_in_zone("gamma") == 1

    def test_zone_and_trace_are_mutually_exclusive(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CloudProvider(sim, make_trace(), zones=three_zones())
        with pytest.raises(ValueError):
            CloudProvider(sim)

    def test_instances_carry_zone_identity(self):
        sim = Simulator()
        provider = CloudProvider(sim, zones=three_zones())
        zones = {provider.zone_of(inst.instance_id) for inst in provider._instances.values()}
        assert zones == {"alpha", "beta", "gamma"}
        alpha = [inst for inst in provider._instances.values() if inst.zone == "alpha"]
        assert alpha
        for inst in alpha:
            assert inst.instance_id.startswith("alpha-")

    def test_preemptions_stay_in_their_zone(self):
        sim = Simulator()
        provider = CloudProvider(sim, zones=three_zones())
        preempted = []
        sim.on(
            EventType.PREEMPTION_NOTICE,
            lambda e: preempted.append(e.payload["instance"]),
        )
        sim.run(until=200.0)
        assert len(preempted) == 1
        assert preempted[0].zone == "alpha"
        assert provider.alive_in_zone("beta") == 2

    def test_targeted_on_demand_allocation(self):
        sim = Simulator()
        provider = CloudProvider(sim, zones=three_zones())
        granted = provider.request_on_demand(1, zone="gamma")
        assert len(granted) == 1
        assert granted[0].zone == "gamma"
        with pytest.raises(KeyError):
            provider.request_on_demand(1, zone="nonexistent")

    def test_capacity_limits_allocation(self):
        sim = Simulator()
        provider = CloudProvider(sim, zones=three_zones(), allow_spot_requests=True)
        # gamma holds 1/2 instances: only one more fits.
        granted = provider.request_spot(5, zone="gamma")
        assert len(granted) == 1
        assert provider.capacity_remaining("gamma") == 0
        assert provider.request_spot(1, zone="gamma") == []

    def test_untargeted_allocation_spills_across_zones(self):
        sim = Simulator()
        provider = CloudProvider(sim, zones=three_zones(), allow_spot_requests=True)
        # Room: alpha 2, beta 1, gamma 1.
        granted = provider.request_spot(4)
        assert len(granted) == 4
        assert sorted({inst.zone for inst in granted}) == ["alpha", "beta", "gamma"]

    def test_trace_acquire_respects_capacity(self):
        sim = Simulator()
        zone = ZoneSpec(
            name="tight",
            trace=make_trace(
                "t", initial=2, events=[TraceEvent(50.0, TraceEventKind.ACQUIRE, 5)]
            ),
            capacity=3,
        )
        provider = CloudProvider(sim, zones=[zone])
        sim.run(until=100.0)
        assert provider.alive_in_zone("tight") == 3

    def test_zone_prices_feed_cost_tracker(self):
        sim = Simulator()
        provider = CloudProvider(sim, zones=three_zones())
        sim.run(until=3600.0)
        costs = provider.cost_tracker.cost_by_zone(3600.0)
        # alpha: 2 instances, $1/h for 200s then $3/h (one preempted at
        # 100s+grace); beta: 2 instances at $1.5/h; gamma: 1 at $2.5/h.
        assert costs["beta"] == pytest.approx(2 * 1.5)
        assert costs["gamma"] == pytest.approx(2.5)
        assert costs["alpha"] > 2.0  # the $3/h spike dominates the flat rate
        assert provider.spot_price("alpha", 300.0) == 3.0
        assert provider.spot_price("alpha", 100.0) == 1.0

    def test_victim_selection_deterministic_per_zone(self):
        def run_once():
            sim = Simulator()
            provider = CloudProvider(sim, zones=three_zones(), victim_seed=3)
            picked = []
            sim.on(
                EventType.PREEMPTION_NOTICE,
                lambda e: picked.append(e.payload["instance"].zone),
            )
            sim.run(until=200.0)
            fleet = sorted(
                i.instance_id for i in provider._instances.values() if i.zone == "alpha"
            )
            return picked, len(fleet)

        assert run_once() == run_once()

    def test_victim_streams_are_seeded_through_derive_seed(self):
        # Several zones: each zone's victim stream is derived from the seed
        # and the zone name.  One zone: the seed itself, as before zones.
        provider = CloudProvider(Simulator(), zones=three_zones(), victim_seed=3)
        for zone in ("alpha", "beta", "gamma"):
            expected = np.random.default_rng(derive_seed(3, zone)).random(4)
            assert list(provider._victim_rngs[zone].random(4)) == list(expected)
        single = CloudProvider(Simulator(), trace=make_trace(), victim_seed=3)
        (stream,) = single._victim_rngs.values()
        assert list(stream.random(4)) == list(np.random.default_rng(3).random(4))


class TestZoneAwareManager:
    def _manager(self):
        sim = Simulator()
        provider = CloudProvider(sim, zones=three_zones(), allow_spot_requests=True)
        manager = InstanceManager(provider)
        manager.adopt_initial_fleet()
        return sim, provider, manager

    def test_zone_counts(self):
        _, _, manager = self._manager()
        counts = Counter(inst.zone for inst in manager.stable_instances())
        assert counts == {"alpha": 2, "beta": 2, "gamma": 1}

    def test_zone_targeted_free(self):
        _, _, manager = self._manager()
        released = manager.free(1, zone="beta", keep_pool=False)
        assert len(released) == 1
        assert released[0].zone == "beta"
        assert [inst.zone for inst in manager.stable_instances()].count("beta") == 1

    def test_free_respects_avoid_list(self):
        _, _, manager = self._manager()
        protected = [inst.instance_id for inst in manager.stable_instances()]
        assert manager.free(3, keep_pool=False, avoid=protected) == []

    def test_zone_targeted_alloc(self):
        sim, provider, manager = self._manager()
        granted = manager.alloc(1, zone="beta")
        assert len(granted) == 1
        assert granted[0].zone == "beta"


class TestCrossZoneNetwork:
    ZONES = {"a-0": "east", "a-1": "east", "b-0": "west"}

    def _model(self, model_class=NetworkModel):
        return model_class(zone_of=lambda inst: self.ZONES.get(inst, "east"))

    def test_cross_zone_transfers_are_slower(self):
        model = self._model()
        size = 1024 ** 3
        intra = model.batch_time([Transfer(("a-0", 0), ("a-0", 1), size)])
        inter = model.batch_time([Transfer(("a-0", 0), ("a-1", 0), size)])
        cross = model.batch_time([Transfer(("a-0", 0), ("b-0", 0), size)])
        assert intra < inter < cross

    def test_is_cross_zone(self):
        model = self._model()
        spec = model.spec
        cross = spec.cross_zone_latency + 1.0 / spec.cross_zone_bandwidth
        inter = spec.per_transfer_latency + 1.0 / spec.inter_instance_bandwidth
        intra = spec.per_transfer_latency + 1.0 / spec.intra_instance_bandwidth
        assert model.batch_time([Transfer(("a-0", 0), ("b-0", 0), 1.0)]) == cross
        assert model.batch_time([Transfer(("a-0", 0), ("a-1", 0), 1.0)]) == inter
        # Local transfers never count as cross-zone.
        assert model.batch_time([Transfer(("a-0", 0), ("a-0", 1), 1.0)]) == intra

    def test_cross_zone_bytes(self):
        model = self._model(PerTransferNetworkModel)
        transfers = [
            Transfer(("a-0", 0), ("b-0", 0), 100.0),
            Transfer(("a-0", 0), ("a-1", 0), 50.0),
        ]
        cross = sum(t.size_bytes for t in transfers if model.is_cross_zone(t))
        assert cross == pytest.approx(100.0)
        # Both cross an instance boundary, whichever zone they land in.
        assert not any(is_local(t) for t in transfers)

    def test_without_topology_everything_is_one_zone(self):
        model = NetworkModel()
        spec = model.spec
        inter = spec.per_transfer_latency + 1.0 / spec.inter_instance_bandwidth
        assert model.batch_time([Transfer(("a-0", 0), ("b-0", 0), 1.0)]) == inter

    def test_invalid_cross_zone_spec_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(cross_zone_bandwidth=0.0)
        with pytest.raises(ValueError):
            NetworkSpec(cross_zone_latency=-1.0)
