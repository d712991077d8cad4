"""Tests for cloud instance types, lifecycle and billing hours."""

import pytest

from repro.cloud.instance import (
    G4DN_12XLARGE,
    Instance,
    InstanceState,
    InstanceType,
    Market,
)


def spot_instance(launch_time=0.0):
    return Instance(instance_type=G4DN_12XLARGE, market=Market.SPOT, launch_time=launch_time)


def on_demand_instance(launch_time=0.0):
    return Instance(
        instance_type=G4DN_12XLARGE, market=Market.ON_DEMAND, launch_time=launch_time
    )


class TestInstanceType:
    def test_paper_prices(self):
        """Figure 7 quotes 3.9 $/h on-demand vs 1.9 $/h spot for g4dn.12xlarge."""
        assert G4DN_12XLARGE.spot_price_per_hour == pytest.approx(1.9)
        assert G4DN_12XLARGE.on_demand_price_per_hour == pytest.approx(3.9)
        assert G4DN_12XLARGE.gpus_per_instance == 4
        assert G4DN_12XLARGE.grace_period == pytest.approx(30.0)

    def test_invalid_gpu_count_rejected(self):
        with pytest.raises(ValueError):
            InstanceType(gpus_per_instance=0)

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            InstanceType(spot_price_per_hour=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field",
        ["spot_price_per_hour", "on_demand_price_per_hour", "grace_period", "startup_delay"],
    )
    def test_non_finite_value_rejected(self, field, value):
        # ``nan`` passes a ``< 0`` check, and an infinite price or delay
        # would poison every bill or launch time derived from it.
        with pytest.raises(ValueError):
            InstanceType(**{field: value})


class TestInstanceLifecycle:
    def test_unique_instance_ids(self):
        a, b = spot_instance(), spot_instance()
        assert a.instance_id != b.instance_id

    def test_gpu_ids(self):
        instance = spot_instance()
        assert len(instance.gpu_ids) == 4
        assert all(inst_id == instance.instance_id for inst_id, _ in instance.gpu_ids)

    def test_launching_not_usable(self):
        instance = spot_instance()
        assert not instance.is_usable
        assert instance.is_alive

    def test_ready_then_usable(self):
        instance = spot_instance()
        instance.mark_ready(10.0)
        assert instance.is_usable
        assert instance.ready_time == 10.0

    def test_double_ready_rejected(self):
        instance = spot_instance()
        instance.mark_ready(10.0)
        with pytest.raises(ValueError):
            instance.mark_ready(20.0)

    def test_grace_period_keeps_instance_usable(self):
        instance = spot_instance()
        instance.mark_ready(0.0)
        deadline = instance.notify_preemption(100.0)
        assert deadline == pytest.approx(130.0)
        assert instance.state is InstanceState.GRACE_PERIOD
        assert instance.is_usable

    def test_preemption_terminates(self):
        instance = spot_instance()
        instance.mark_ready(0.0)
        instance.notify_preemption(100.0)
        instance.preempt(130.0)
        assert not instance.is_usable
        assert not instance.is_alive
        assert instance.termination_time == 130.0

    def test_on_demand_never_preempted(self):
        instance = on_demand_instance()
        instance.mark_ready(0.0)
        with pytest.raises(ValueError):
            instance.notify_preemption(10.0)
        with pytest.raises(ValueError):
            instance.preempt(10.0)

    def test_release(self):
        instance = on_demand_instance()
        instance.mark_ready(0.0)
        instance.release(500.0)
        assert instance.state is InstanceState.RELEASED
        with pytest.raises(ValueError):
            instance.release(600.0)
