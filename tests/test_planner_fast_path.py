"""Equivalence tests for the signature-grouped, memoised plan phase.

The plan-phase fast path rests on four claims, each pinned here:

* the interned geometry helper ``stage_layers`` equals its O(num_layers)
  scan reference for every (layers, degree) signature, fractional stage
  boundaries included;
* per-bucket step construction -- interned holder buckets, candidates
  ranked and pieces covered once per (bucket, destination class), settled
  destinations dropped before any holder table is built -- produces
  **byte-equal** :class:`MigrationPlan` fields and identical ``Transfer``
  ordering vs the scalar reference in ``tests/oracles/migration.py`` under
  randomized fleet churn, degrees, evacuation mode, cache requirements and
  storage fallback, and on churn-shaped fleets whose contexts mostly sit
  outside the placement; a bucket shared by every layer is ranked once
  per destination class, and an all-settled placement builds no table;
* the numpy deferred-layer drain picks the same layer order as the scalar
  greedy, strict-less first-min tie-breaks included;
* the cross-round plan memo hits exactly when every plan input is unchanged
  and misses (or is invalidated) on any fleet / context / config change.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import ParallelConfig
from repro.core.device_mapper import DeviceMapper, DeviceMapping
from repro.core.migration import MigrationPlanner, MigrationStep
from repro.engine.context import MetaContextManager
from repro.engine.placement import (
    TopologyPosition,
    mesh_positions,
    stage_layer_range,
    stage_layers,
)
from repro.llm.spec import GPT_20B, OPT_6_7B
from repro.sim.network import NetworkModel, Transfer

from oracles.migration import ReferenceMigrationPlanner

REPO_ROOT = Path(__file__).resolve().parents[1]

GB = 1024 ** 3


def devices_for(num_instances, gpus_per_instance=4, prefix="inst"):
    return [
        (f"{prefix}-{i:02d}", g)
        for i in range(num_instances)
        for g in range(gpus_per_instance)
    ]


def zone_of(instance_id):
    return f"z{int(instance_id.split('-')[1]) % 3}"


def random_fleet_state(rng, model):
    """Random meta-context state: some instances stateful, some fresh."""
    meta = MetaContextManager()
    n_instances = int(rng.integers(2, 9))
    devices = devices_for(n_instances)
    old = ParallelConfig(
        int(rng.choice([1, 2])),
        int(rng.choice([1, 2, 3])),
        int(rng.choice([2, 4, 8])),
        8,
    )
    positions = mesh_positions(old.data_degree, old.pipeline_degree, old.tensor_degree)
    for device, position in zip(devices, positions):
        if rng.random() < 0.8:
            meta.daemon(device).install_model_context(
                old.pipeline_degree, old.tensor_degree, position
            )
        if rng.random() < 0.4:
            meta.daemon(device).install_cache_context(
                old.pipeline_degree,
                old.tensor_degree,
                position,
                batch_size=int(rng.integers(1, 9)),
                cached_tokens=int(rng.integers(1, 700)),
            )
    return meta, devices, old


def assert_plans_byte_equal(fast, reference):
    """Every plan field exactly equal, Transfer ordering included."""
    assert fast.layer_order == reference.layer_order
    assert fast.total_time == reference.total_time
    assert fast.stall_time == reference.stall_time
    assert fast.peak_buffer_bytes == reference.peak_buffer_bytes
    assert fast.storage_load_time == reference.storage_load_time
    assert fast.total_bytes == reference.total_bytes
    assert len(fast.steps) == len(reference.steps)
    for fast_step, ref_step in zip(fast.steps, reference.steps):
        assert fast_step.kind == ref_step.kind
        assert fast_step.layer_index == ref_step.layer_index
        assert fast_step.storage_bytes == ref_step.storage_bytes
        assert fast_step.stages_ready == ref_step.stages_ready
        # List equality of frozen dataclasses pins both content and order.
        assert fast_step.transfers == ref_step.transfers


class TestGeometryHelpers:
    """Satellite: range-built stage layers == the O(num_layers) scan."""

    @pytest.mark.parametrize("seed", range(20))
    def test_stage_layers_equal_scan_reference(self, seed):
        rng = np.random.default_rng(seed)
        num_layers = int(rng.integers(1, 130))
        pipeline_degree = int(rng.integers(1, 17))
        for stage in range(pipeline_degree):
            start, end = stage_layer_range(num_layers, pipeline_degree, stage)
            scan = [l for l in range(num_layers) if start <= l < end]
            assert list(stage_layers(num_layers, pipeline_degree, stage)) == scan

    def test_stage_layers_exhaustive_small(self):
        """Every (layers <= 40, P <= 9, stage): ceil-range == scan."""
        for num_layers in range(1, 41):
            for pipeline_degree in range(1, 10):
                seen = []
                for stage in range(pipeline_degree):
                    start, end = stage_layer_range(num_layers, pipeline_degree, stage)
                    scan = [l for l in range(num_layers) if start <= l < end]
                    built = list(stage_layers(num_layers, pipeline_degree, stage))
                    assert built == scan
                    seen.extend(built)
                # Stages partition the layers (no loss, no double-count).
                assert sorted(seen) == list(range(num_layers))


class TestFastReferencePlanEquivalence:
    """Randomized sweeps: planner plans == scalar reference plans."""

    @staticmethod
    def random_transition(rng, meta, devices, old):
        """Random fleet delta, then a feasible new config."""
        delta = rng.integers(0, 4)
        if delta == 0 and len({d[0] for d in devices}) > 2:
            # Preemption: an instance vanishes with its context (this is
            # also what forces storage-fallback segments downstream).
            instances = sorted({d[0] for d in devices})
            victim = instances[int(rng.integers(0, len(instances)))]
            meta.drop_instance(victim)
            devices = [d for d in devices if d[0] != victim]
        elif delta == 1:
            index = len({d[0] for d in devices}) + int(rng.integers(10, 90))
            devices = devices + devices_for(1, prefix=f"inst-{index:02d}")
        while True:
            new = ParallelConfig(
                int(rng.choice([1, 2])),
                int(rng.choice([1, 2, 3])),
                int(rng.choice([2, 4])),
                8,
            )
            if new.num_gpus <= len(devices):
                return devices, new

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_rounds_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        model = GPT_20B if seed % 2 else OPT_6_7B
        meta, devices, old = random_fleet_state(rng, model)
        zones = zone_of if seed % 3 != 2 else None
        network = NetworkModel(zone_of=zones)

        fast = MigrationPlanner(model, network)
        reference = ReferenceMigrationPlanner(model, network)
        mapper = DeviceMapper(model, zone_of=zones)

        for round_index in range(5):
            devices, new = self.random_transition(rng, meta, devices, old)
            inheritance = {
                d: int(rng.integers(0, new.data_degree))
                for d in range(old.data_degree)
            }
            mapping = mapper.map_devices(meta, devices, new, inheritance)
            cache_requirements = {}
            if rng.random() < 0.6:
                cache_requirements = {
                    int(rng.integers(0, new.data_degree)): (
                        int(rng.integers(0, old.data_degree)),
                        int(rng.integers(1, 9)),
                        int(rng.integers(0, 700)),
                    )
                }
            evacuating = bool(rng.random() < 0.3)
            fast.evacuation_mode = evacuating
            reference.evacuation_mode = evacuating
            fast_plan = fast.plan(meta, mapping, cache_requirements)
            ref_plan = reference.plan(meta, mapping, cache_requirements)
            assert_plans_byte_equal(fast_plan, ref_plan)

    def test_storage_fallback_matches_reference(self):
        """Lost slices are billed to storage identically on both paths."""
        meta = MetaContextManager()
        old = ParallelConfig(1, 1, 4, 8)
        devices = devices_for(1)
        positions = mesh_positions(1, 1, 4)
        for device, position in zip(devices, positions):
            meta.daemon(device).install_model_context(1, 4, position)
        meta.drop_instance("inst-00")
        new_devices = devices_for(1, prefix="inst-99")
        for device in new_devices:
            meta.daemon(device)
        mapping = DeviceMapper(OPT_6_7B).map_devices(meta, new_devices, old)
        fast_plan = MigrationPlanner(OPT_6_7B).plan(meta, mapping, {})
        ref_plan = ReferenceMigrationPlanner(OPT_6_7B).plan(meta, mapping, {})
        assert fast_plan.storage_load_time > 0
        assert_plans_byte_equal(fast_plan, ref_plan)

    def test_tight_buffer_budget_matches_reference(self):
        """A small U_max forces deferrals through both drain implementations."""
        rng = np.random.default_rng(99)
        meta, devices, old = random_fleet_state(rng, GPT_20B)
        new = ParallelConfig(1, 3, 4, 8)
        while new.num_gpus > len(devices):
            devices = devices + devices_for(1, prefix="inst-77")
        mapping = DeviceMapper(GPT_20B).map_devices(meta, devices, new)
        for budget in (0.01 * GB, 0.1 * GB, 1.0 * GB):
            fast = MigrationPlanner(GPT_20B, max_buffer_bytes=budget)
            reference = ReferenceMigrationPlanner(GPT_20B, max_buffer_bytes=budget)
            assert_plans_byte_equal(
                fast.plan(meta, mapping, {}), reference.plan(meta, mapping, {})
            )


class TestPerBucketPlanWork:
    """Plan work done once per distinct input: per holder bucket, not per layer."""

    def test_one_bucket_is_ranked_once_per_destination_class(self, monkeypatch):
        """OPT-6.7B at P = 1: all 32 layers share one holder bucket."""
        meta = MetaContextManager()
        old = ParallelConfig(2, 1, 4, 8)
        for device, position in zip(
            devices_for(2), mesh_positions(old.data_degree, 1, old.tensor_degree)
        ):
            meta.daemon(device).install_model_context(1, 4, position)
        # Two fresh instances join; M = 2 leaves every destination a gap.
        devices = devices_for(4)
        mapping = DeviceMapper(OPT_6_7B, zone_of=zone_of).map_devices(
            meta, devices, ParallelConfig(8, 1, 2, 8)
        )
        ranked = []
        partition = MigrationPlanner._partition_ranked

        def counting(bucket, instance, dest_zone, zones):
            holds = any(device_id[0] == instance for _, device_id in bucket)
            ranked.append((id(bucket), instance if holds else dest_zone))
            return partition(bucket, instance, dest_zone, zones)

        monkeypatch.setattr(MigrationPlanner, "_partition_ranked", staticmethod(counting))
        network = NetworkModel(zone_of=zone_of)
        plan = MigrationPlanner(OPT_6_7B, network).plan(meta, mapping, {})
        monkeypatch.undo()

        holding = {"inst-00", "inst-01"}
        classes = {
            instance if instance in holding else zone_of(instance)
            for instance, _ in mapping.placement
        }
        assert classes == {"inst-00", "inst-01", "z2", "z0"}
        assert len({bucket for bucket, _ in ranked}) == 1
        assert sorted(cls for _, cls in ranked) == sorted(classes)
        reference = ReferenceMigrationPlanner(OPT_6_7B, network)
        assert_plans_byte_equal(plan, reference.plan(meta, mapping, {}))

    def test_settled_destinations_build_no_holder_table(self, monkeypatch):
        """Every destination already holds its new position: no table, an empty plan."""
        meta = MetaContextManager()
        config = ParallelConfig(2, 2, 2, 8)
        positions = mesh_positions(2, 2, 2)
        placement = dict(zip(devices_for(2), positions))
        for device, position in placement.items():
            daemon = meta.daemon(device)
            daemon.install_model_context(2, 2, position)
            if position.data_index == 1:
                daemon.install_cache_context(2, 2, position, batch_size=4, cached_tokens=300)
        # A device outside the placement holds another layout's slice.
        meta.daemon(("inst-09", 0)).install_model_context(1, 1, TopologyPosition(0, 0, 0))
        mapping = DeviceMapping(config=config, placement=placement)
        requirements = {1: (1, 4, 300)}
        tables = []
        holder_table = MigrationPlanner._holder_table

        def counting(self, contexts):
            contexts = list(contexts)
            tables.append(contexts)
            return holder_table(self, contexts)

        monkeypatch.setattr(MigrationPlanner, "_holder_table", counting)
        network = NetworkModel(zone_of=zone_of)
        plan = MigrationPlanner(OPT_6_7B, network).plan(meta, mapping, requirements)
        monkeypatch.undo()

        assert tables == []
        assert plan.is_empty
        reference = ReferenceMigrationPlanner(OPT_6_7B, network)
        assert_plans_byte_equal(plan, reference.plan(meta, mapping, requirements))

    @staticmethod
    def churn_state(rng):
        """Four layouts' contexts on 8-12 instances, most outside the new fleet.

        The first layout spans every device; each later one covers a window
        of devices starting anywhere, so it overwrites parts of the earlier
        ones.  A layout leaves about a tenth of its positions out.  The
        fleet keeps a third of the instances and gains fresh ones.  Returns
        the meta context, the fleet's devices and the last layout's config.
        """
        meta = MetaContextManager()
        devices = devices_for(int(rng.integers(8, 13)))
        for layout in range(4):
            pipeline_degree = int(rng.choice([1, 2]))
            tensor_degree = int(rng.choice([2, 4]))
            data_degree = (
                int(rng.integers(2, 7))
                if layout
                else len(devices) // (pipeline_degree * tensor_degree)
            )
            old = ParallelConfig(data_degree, pipeline_degree, tensor_degree, 8)
            start = int(rng.integers(0, len(devices))) if layout else 0
            positions = mesh_positions(
                old.data_degree, old.pipeline_degree, old.tensor_degree
            )
            for offset, position in enumerate(positions):
                if rng.random() < 0.1:
                    continue
                daemon = meta.daemon(devices[(start + offset) % len(devices)])
                daemon.install_model_context(
                    old.pipeline_degree, old.tensor_degree, position
                )
                if rng.random() < 0.5:
                    daemon.install_cache_context(
                        old.pipeline_degree,
                        old.tensor_degree,
                        position,
                        batch_size=int(rng.integers(1, 9)),
                        cached_tokens=int(rng.integers(1, 700)),
                    )
        instances = [instance for instance, _ in devices[::4]]
        kept = {
            instances[i]
            for i in rng.choice(len(instances), size=len(instances) // 3, replace=False)
        }
        fleet = [device for device in devices if device[0] in kept]
        fleet += devices_for(int(rng.integers(1, 4)), prefix="inst-9")
        return meta, fleet, old

    @pytest.mark.parametrize("seed", range(16))
    def test_churn_shaped_plans_match_reference(self, seed):
        rng = np.random.default_rng(1000 + seed)
        model = OPT_6_7B if seed % 4 else GPT_20B
        meta, fleet, old = self.churn_state(rng)
        holding = [device for device, daemon in meta.daemons() if daemon.model_context]
        assert len({device[0] for device in holding}) >= 8
        assert len(set(holding) - set(fleet)) > len(holding) / 2
        network = NetworkModel(zone_of=zone_of)
        fast = MigrationPlanner(model, network)
        reference = ReferenceMigrationPlanner(model, network)
        mapper = DeviceMapper(model, zone_of=zone_of)
        for pipeline_degree in (1, 2):
            tensor_degree = int(rng.choice([1, 2, 4]))
            data_degree = max(len(fleet) // (pipeline_degree * tensor_degree), 1)
            new = ParallelConfig(data_degree, pipeline_degree, tensor_degree, 8)
            inheritance = {
                d: int(rng.integers(0, new.data_degree)) for d in range(old.data_degree)
            }
            mapping = mapper.map_devices(meta, fleet, new, inheritance)
            requirements = {
                new_index: (
                    int(rng.integers(0, old.data_degree)),
                    int(rng.integers(1, 9)),
                    int(rng.integers(1, 700)),
                )
                for new_index in range(new.data_degree)
                if rng.random() < 0.5
            }
            for evacuating in (False, True):
                fast.evacuation_mode = reference.evacuation_mode = evacuating
                assert_plans_byte_equal(
                    fast.plan(meta, mapping, requirements),
                    reference.plan(meta, mapping, requirements),
                )


class TestDeferredDrainEquivalence:
    """The numpy drain == the scalar greedy on synthetic step sets."""

    @staticmethod
    def synthetic_steps(rng, num_layers, num_instances, tie_heavy=False):
        steps = {}
        for layer in range(num_layers):
            step = MigrationStep(kind="weight", layer_index=layer)
            for _ in range(int(rng.integers(0, 5))):
                src = (f"inst-{int(rng.integers(0, num_instances)):02d}", 0)
                dst = (f"inst-{int(rng.integers(0, num_instances)):02d}", 1)
                # Identical sizes manufacture peak ties between layers.
                size = 1.0 * GB if tie_heavy else float(rng.integers(1, 64)) * GB / 16
                step.transfers.append(
                    Transfer(src=src, dst=dst, size_bytes=size, tag="model")
                )
            steps[layer] = step
        return steps

    @staticmethod
    def deltas(planner, steps):
        """Each step's buffer deltas, by layer, as ``_assemble`` builds them."""
        return {layer: planner._buffer_deltas(step) for layer, step in steps.items()}

    @pytest.mark.parametrize("seed", range(15))
    def test_random_steps_same_order(self, seed):
        rng = np.random.default_rng(seed)
        num_layers = int(rng.integers(1, 25))
        steps = self.synthetic_steps(
            rng, num_layers, int(rng.integers(2, 7)), tie_heavy=seed % 3 == 0
        )
        model = SimpleNamespace(num_layers=num_layers)
        budget = float(rng.choice([0.5, 1.0, 2.0, 4.0])) * GB
        fast = MigrationPlanner(GPT_20B, max_buffer_bytes=budget)
        reference = ReferenceMigrationPlanner(GPT_20B, max_buffer_bytes=budget)
        fast.model = reference.model = model
        fast_order = fast._order_layers(self.deltas(fast, steps))
        ref_order = reference._order_layers(self.deltas(reference, steps))
        assert fast_order == ref_order
        assert sorted(fast_order) == list(range(num_layers))

    def test_all_layers_deferred_with_zero_budget(self):
        rng = np.random.default_rng(7)
        steps = self.synthetic_steps(rng, 12, 4)
        model = SimpleNamespace(num_layers=12)
        fast = MigrationPlanner(GPT_20B, max_buffer_bytes=0.0)
        reference = ReferenceMigrationPlanner(GPT_20B, max_buffer_bytes=0.0)
        fast.model = reference.model = model
        assert fast._order_layers(self.deltas(fast, steps)) == reference._order_layers(
            self.deltas(reference, steps)
        )


class TestPlanMemo:
    """Cross-round memo: hit on identical inputs, miss on any change."""

    @staticmethod
    def transition(model=GPT_20B, num_instances=6):
        meta = MetaContextManager()
        devices = devices_for(num_instances)
        old = ParallelConfig(1, 2, 8, 8)
        positions = mesh_positions(old.data_degree, old.pipeline_degree, old.tensor_degree)
        for device, position in zip(devices, positions):
            meta.daemon(device).install_model_context(
                old.pipeline_degree, old.tensor_degree, position
            )
        new = ParallelConfig(1, 3, 4, 8)
        mapping = DeviceMapper(model).map_devices(meta, devices, new)
        return meta, devices, mapping

    def test_identical_round_hits_and_returns_same_object(self):
        meta, devices, mapping = self.transition()
        planner = MigrationPlanner(GPT_20B)
        first = planner.plan(meta, mapping, {})
        assert (planner.plan_memo_hits, planner.plan_memo_misses) == (0, 1)
        second = planner.plan(meta, mapping, {})
        assert second is first
        assert (planner.plan_memo_hits, planner.plan_memo_misses) == (1, 1)

    def test_context_change_misses(self):
        meta, devices, mapping = self.transition()
        planner = MigrationPlanner(GPT_20B)
        planner.plan(meta, mapping, {})
        meta.drop_instance(devices[0][0])
        planner.plan(meta, mapping, {})
        assert planner.plan_memo_hits == 0
        assert planner.plan_memo_misses == 2

    def test_cache_requirement_change_misses(self):
        meta, devices, mapping = self.transition()
        planner = MigrationPlanner(GPT_20B)
        planner.plan(meta, mapping, {0: (0, 8, 128)})
        planner.plan(meta, mapping, {0: (0, 8, 256)})
        planner.plan(meta, mapping, {})
        assert planner.plan_memo_misses == 3
        planner.plan(meta, mapping, {0: (0, 8, 128)})
        assert planner.plan_memo_hits == 1

    def test_config_toggles_miss(self):
        meta, devices, mapping = self.transition()
        planner = MigrationPlanner(GPT_20B)
        planner.plan(meta, mapping, {})
        planner.evacuation_mode = True
        planner.plan(meta, mapping, {})
        planner.evacuation_mode = False
        planner.max_buffer_bytes /= 2.0
        undegraded = planner.plan(meta, mapping, {})
        planner.network.bandwidth_factor = 4.0
        degraded = planner.plan(meta, mapping, {})
        assert planner.plan_memo_hits == 0
        assert planner.plan_memo_misses == 4
        assert degraded.migration_time > undegraded.migration_time
        fresh = MigrationPlanner(GPT_20B, max_buffer_bytes=planner.max_buffer_bytes)
        fresh.network.bandwidth_factor = 4.0
        assert_plans_byte_equal(degraded, fresh.plan(meta, mapping, {}))

    def test_each_bandwidth_factor_keeps_its_own_plan(self):
        meta, devices, mapping = self.transition()
        planner = MigrationPlanner(GPT_20B)
        undegraded = planner.plan(meta, mapping, {})
        planner.network.bandwidth_factor = 4.0
        degraded = planner.plan(meta, mapping, {})
        assert planner.plan(meta, mapping, {}) is degraded
        planner.network.bandwidth_factor = 1.0
        assert planner.plan(meta, mapping, {}) is undegraded
        assert (planner.plan_memo_hits, planner.plan_memo_misses) == (2, 2)

    def test_memoised_plan_equals_fresh_plan(self):
        """A hit returns exactly what an unmemoised build would produce."""
        meta, devices, mapping = self.transition()
        planner = MigrationPlanner(GPT_20B)
        planner.plan(meta, mapping, {})
        hit = planner.plan(meta, mapping, {})
        fresh = MigrationPlanner(GPT_20B).plan(meta, mapping, {})
        assert_plans_byte_equal(hit, fresh)

    def test_memo_is_lru_bounded(self):
        meta, devices, mapping = self.transition()
        planner = MigrationPlanner(GPT_20B)
        for tokens in range(planner.PLAN_MEMO_SIZE * 2):
            planner.plan(meta, mapping, {0: (0, 8, tokens + 1)})
        assert len(planner._plan_memo) == planner.PLAN_MEMO_SIZE


class TestPerfCheckPlanGuard:
    """run_perf.py --check guards the plan phase's ms/call per scenario."""

    @staticmethod
    def report(plan_ms, round_ms=5.0, requests=50000.0):
        return {
            "adaptation_round_ms": round_ms,
            "sim_requests_per_sec": requests,
            "phases": {"plan": {"seconds": 1.0, "calls": 10, "ms_per_call": plan_ms}},
        }

    def baseline(self, tmp_path, plan_ms):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "scenarios": {
                        "s": {"adaptation_round_ms": 10.0, "plan_ms_per_call": plan_ms}
                    }
                }
            )
        )
        return path

    def test_plan_regression_fails_the_check(self, run_perf, tmp_path):
        baseline = self.baseline(tmp_path, 2.0)
        assert (
            run_perf.check_regression(
                {"s": self.report(plan_ms=10.0)}, baseline, max_regression=2.0
            )
            == 1
        )

    def test_plan_within_limit_passes(self, run_perf, tmp_path):
        baseline = self.baseline(tmp_path, 2.0)
        assert (
            run_perf.check_regression(
                {"s": self.report(plan_ms=3.9)}, baseline, max_regression=2.0
            )
            == 0
        )

    def test_scenario_without_plan_calls_skips_the_guard(self, run_perf, tmp_path):
        """Pinned-fleet scenarios have no reconfiguring rounds: skip, don't fail."""
        baseline = self.baseline(tmp_path, 2.0)
        report = self.report(plan_ms=0.0)
        report["phases"] = {}
        assert run_perf.check_regression({"s": report}, baseline, 2.0) == 0
