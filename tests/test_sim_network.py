"""Tests for the network transfer model."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.core.migration import MigrationStep
from repro.sim.network import GB, NetworkModel, NetworkSpec, Transfer

from oracles.network import PerTransferNetworkModel, is_local


def make_transfer(src_inst, dst_inst, size, src_gpu=0, dst_gpu=0, tag="model"):
    return Transfer(src=(src_inst, src_gpu), dst=(dst_inst, dst_gpu), size_bytes=size, tag=tag)


class TestNetworkSpec:
    def test_defaults_are_valid(self):
        spec = NetworkSpec()
        assert spec.inter_instance_bandwidth > 0
        assert spec.intra_instance_bandwidth > spec.inter_instance_bandwidth

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(inter_instance_bandwidth=0)

    def test_invalid_streams_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(concurrent_streams=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field",
        [
            "inter_instance_bandwidth",
            "intra_instance_bandwidth",
            "cross_zone_bandwidth",
            "per_transfer_latency",
            "cross_zone_latency",
        ],
    )
    def test_non_finite_value_rejected(self, field, value):
        # ``nan`` passes every ``<= 0`` / ``< 0`` check.
        with pytest.raises(ValueError):
            NetworkSpec(**{field: value})


def one(model, transfer):
    """Duration of *transfer* alone: a batch of one."""
    return model.batch_time([transfer])


class TestTransferTime:
    def test_noop_transfer_is_free(self):
        model = NetworkModel()
        transfer = make_transfer("a", "a", 1 * GB, src_gpu=1, dst_gpu=1)
        assert one(model, transfer) == 0.0

    def test_intra_instance_faster_than_inter(self):
        model = NetworkModel()
        local = make_transfer("a", "a", 1 * GB, src_gpu=0, dst_gpu=1)
        remote = make_transfer("a", "b", 1 * GB)
        assert one(model, local) < one(model, remote)

    def test_time_scales_with_size(self):
        model = NetworkModel()
        small = one(model, make_transfer("a", "b", 1 * GB))
        large = one(model, make_transfer("a", "b", 4 * GB))
        assert large > small

    def test_zero_size_is_free(self):
        model = NetworkModel()
        assert one(model, make_transfer("a", "b", 0.0)) == 0.0

    def test_each_link_class_prices_latency_plus_bytes_over_bandwidth(self):
        spec = NetworkSpec()
        model = NetworkModel(spec, zone_of=lambda instance: instance[0])
        size = 3 * GB
        intra = make_transfer("a1", "a1", size, dst_gpu=1)
        inter = make_transfer("a1", "a2", size)
        cross = make_transfer("a1", "b1", size)
        assert one(model, intra) == (
            spec.per_transfer_latency + size / spec.intra_instance_bandwidth
        )
        assert one(model, inter) == (
            spec.per_transfer_latency + size / spec.inter_instance_bandwidth
        )
        assert one(model, cross) == spec.cross_zone_latency + size / spec.cross_zone_bandwidth


class TestBatchTime:
    def test_distinct_pairs_run_in_parallel(self):
        model = NetworkModel()
        single = model.batch_time([make_transfer("a", "b", 2 * GB)])
        parallel = model.batch_time(
            [make_transfer("a", "b", 2 * GB), make_transfer("c", "d", 2 * GB)]
        )
        assert parallel == pytest.approx(single)

    def test_same_pair_serialises(self):
        model = NetworkModel()
        single = model.batch_time([make_transfer("a", "b", 2 * GB)])
        double = model.batch_time(
            [make_transfer("a", "b", 2 * GB), make_transfer("a", "b", 2 * GB, src_gpu=1)]
        )
        assert double == pytest.approx(2 * single)

    def test_stream_limit_serialises_excess_pairs(self):
        spec = NetworkSpec(concurrent_streams=2)
        model = NetworkModel(spec)
        transfers = [make_transfer(f"s{i}", f"d{i}", 2 * GB) for i in range(4)]
        limited = model.batch_time(transfers)
        single = one(model, transfers[0])
        assert limited == pytest.approx(2 * single)

    def test_empty_batch_is_free(self):
        assert NetworkModel().batch_time([]) == 0.0

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from(["a", "b", "c"]),
                st.floats(min_value=0, max_value=10 * GB),
            ),
            max_size=20,
        )
    )
    def test_batch_time_bounded_by_serial_sum(self, raw):
        model = NetworkModel()
        transfers = [make_transfer(s, d, size) for s, d, size in raw]
        batch = model.batch_time(transfers)
        serial = sum(one(model, t) for t in transfers)
        longest = max((one(model, t) for t in transfers), default=0.0)
        assert batch <= serial + 1e-9
        assert batch >= longest - 1e-9


class TestByteAccounting:
    def test_total_and_remote_bytes(self):
        transfers = [
            make_transfer("a", "a", 1 * GB, dst_gpu=1),  # local
            make_transfer("a", "b", 2 * GB),  # remote
            make_transfer("a", "a", 5 * GB),  # no-op (same device)
        ]
        # The migration step's total is the production byte count.
        step = MigrationStep(kind="weight", layer_index=0, transfers=transfers)
        assert step.total_bytes == pytest.approx(3 * GB)
        remote = sum(t.size_bytes for t in transfers if not t.is_noop and not is_local(t))
        assert remote == pytest.approx(2 * GB)


class TestBandwidthFactor:
    @staticmethod
    def model():
        # Zero startup latency so times are pure bytes / bandwidth.
        spec = NetworkSpec(per_transfer_latency=0.0, cross_zone_latency=0.0)
        return NetworkModel(spec, zone_of=lambda instance: instance[0])

    def test_defaults_to_one(self):
        assert NetworkModel().bandwidth_factor == 1.0

    @pytest.mark.parametrize(
        "src, dst, src_gpu, dst_gpu",
        [
            ("a1", "a1", 0, 1),  # intra-instance
            ("a1", "a2", 0, 0),  # inter-instance, same zone
            ("a1", "b1", 0, 0),  # cross-zone
        ],
    )
    def test_factor_divides_every_link_class(self, src, dst, src_gpu, dst_gpu):
        model = self.model()
        transfer = make_transfer(src, dst, 2 * GB, src_gpu=src_gpu, dst_gpu=dst_gpu)
        clean = one(model, transfer)
        model.bandwidth_factor = 3.0
        assert one(model, transfer) == pytest.approx(3.0 * clean)

    def test_factor_leaves_startup_latency_untouched(self):
        model = NetworkModel(NetworkSpec(per_transfer_latency=0.5))
        transfer = make_transfer("a", "b", 4 * GB)
        payload = one(model, transfer) - 0.5
        model.bandwidth_factor = 2.0
        assert one(model, transfer) == pytest.approx(0.5 + 2.0 * payload)

    @pytest.mark.parametrize("factor", [0.0, -3.0])
    def test_non_positive_factor_is_ignored(self, factor):
        model = self.model()
        transfer = make_transfer("a1", "a2", 2 * GB)
        clean = one(model, transfer)
        model.bandwidth_factor = factor
        assert one(model, transfer) == clean

    def test_batch_time_scales_by_the_factor(self):
        model = self.model()
        transfers = [
            make_transfer("a1", "a2", 2 * GB),
            make_transfer("a1", "a2", 1 * GB, src_gpu=1),
            make_transfer("a3", "b1", 3 * GB),
        ]
        clean = model.batch_time(transfers)
        model.bandwidth_factor = 5.0
        assert model.batch_time(transfers) == pytest.approx(5.0 * clean)

    def test_resetting_to_one_restores_exact_times(self):
        model = NetworkModel()
        transfer = make_transfer("a", "b", 3 * GB)
        clean = one(model, transfer)
        model.bandwidth_factor = 7.0
        assert one(model, transfer) != clean
        model.bandwidth_factor = 1.0
        assert one(model, transfer) == clean


#: Zone = first letter: three instances in zone a, two in b, one in c.
ZONED_INSTANCES = ("a0", "a1", "a2", "b0", "b1", "c0")


def random_transfers(rng, seen):
    """A random batch over :data:`ZONED_INSTANCES`; *seen* counts each kind drawn."""
    transfers = []
    for _ in range(rng.randint(0, 48)):
        src = (rng.choice(ZONED_INSTANCES), rng.randrange(4))
        roll = rng.random()
        if roll < 0.1:
            dst = src
        elif roll < 0.3:
            dst = (src[0], rng.randrange(4))
        else:
            dst = (rng.choice(ZONED_INSTANCES), rng.randrange(4))
        roll = rng.random()
        if roll < 0.08:
            size = 0.0
        elif roll < 0.1:
            size = -1.0
        else:
            size = rng.uniform(0.0, 6.0) * GB
        if src == dst:
            seen["noop"] += 1
        elif size <= 0:
            seen["empty"] += 1
        elif src[0] == dst[0]:
            seen["intra"] += 1
        elif src[0][0] == dst[0][0]:
            seen["same_zone"] += 1
        else:
            seen["cross_zone"] += 1
        transfers.append(Transfer(src, dst, size, rng.choice(["model", "cache"])))
    return transfers


class TestPricedOncePerPair:
    """``batch_time`` resolves each instance pair's link once per call.

    The per-transfer reference in ``tests/oracles/network.py`` prices every
    transfer on its own; each pair's chain, the schedule and so the batch
    time must be equal bit for bit.
    """

    @pytest.mark.parametrize("factor", [1.0, 0.5, 0.0, -1.0])
    @pytest.mark.parametrize("zoned", [True, False], ids=["zone_of", "no_zone_of"])
    @pytest.mark.parametrize("streams", [3, 8])
    def test_batch_time_equals_per_transfer_pricing(self, factor, zoned, streams):
        rng = random.Random(f"{factor}-{zoned}-{streams}")
        spec = NetworkSpec(concurrent_streams=streams)
        zone_of = (lambda instance: instance[0]) if zoned else None
        fast = NetworkModel(spec, zone_of=zone_of)
        reference = PerTransferNetworkModel(spec, zone_of=zone_of)
        fast.bandwidth_factor = reference.bandwidth_factor = factor
        seen = Counter()
        for _ in range(300):
            transfers = random_transfers(rng, seen)
            pairs = {
                (src[0], dst[0]) for src, dst, size, _ in transfers if src != dst and size > 0
            }
            if len(pairs) > streams:
                seen["more_pairs_than_streams"] += 1
            assert fast.batch_time(transfers).hex() == reference.batch_time(transfers).hex()
        assert set(seen) == {
            "noop",
            "empty",
            "intra",
            "same_zone",
            "cross_zone",
            "more_pairs_than_streams",
        }


class TestTransferRecord:
    """``Transfer`` is a named tuple with the old dataclass's fields and repr."""

    def test_fields_and_default_tag(self):
        transfer = Transfer(("a", 0), ("b", 1), 2.0)
        assert transfer.src == ("a", 0)
        assert transfer.dst == ("b", 1)
        assert transfer.size_bytes == 2.0
        assert transfer.tag == "model"
        assert tuple(transfer) == (("a", 0), ("b", 1), 2.0, "model")

    def test_is_immutable(self):
        transfer = Transfer(("a", 0), ("b", 1), 2.0)
        with pytest.raises(AttributeError):
            transfer.size_bytes = 3.0
        with pytest.raises(TypeError):
            transfer[2] = 3.0

    def test_repr_is_unchanged(self):
        transfer = Transfer(("a", 0), ("b", 1), 2.0, "cache:pipeline0")
        assert repr(transfer) == (
            "Transfer(src=('a', 0), dst=('b', 1), size_bytes=2.0, tag='cache:pipeline0')"
        )

    def test_is_noop(self):
        assert Transfer(("a", 1), ("a", 1), 2.0).is_noop
        assert not Transfer(("a", 1), ("a", 2), 2.0).is_noop
