"""Tests for the migration planner (Algorithm 2)."""

import pytest

from repro.core.config import ParallelConfig
from repro.core.device_mapper import DeviceMapper
from repro.core.migration import (
    DEFAULT_STORAGE_BANDWIDTH,
    ENGINE_RESTART_TIME,
    MigrationPlanner,
    restart_stall_time,
)
from repro.engine.context import MetaContextManager
from repro.engine.placement import mesh_positions, stage_layers
from repro.llm.memory import DEFAULT_MIGRATION_BUFFER_BYTES
from repro.llm.spec import GPT_20B, OPT_6_7B

GB = 1024 ** 3


def devices_for(num_instances, gpus_per_instance=4):
    return [
        (f"inst-{i:02d}", g)
        for i in range(num_instances)
        for g in range(gpus_per_instance)
    ]


def deploy(meta, devices, config, cached_tokens=0, batch_size=8):
    positions = mesh_positions(config.data_degree, config.pipeline_degree, config.tensor_degree)
    placement = dict(zip(devices, positions))
    for device, position in placement.items():
        daemon = meta.daemon(device)
        daemon.install_model_context(config.pipeline_degree, config.tensor_degree, position)
        if cached_tokens > 0:
            daemon.install_cache_context(
                config.pipeline_degree,
                config.tensor_degree,
                position,
                batch_size,
                cached_tokens,
            )
    return placement


def plan_transition(model, old, new, num_instances, planner=None, cached_tokens=0):
    meta = MetaContextManager()
    devices = devices_for(num_instances)
    deploy(meta, devices, old, cached_tokens=cached_tokens)
    mapper = DeviceMapper(model)
    cache_req = {}
    if cached_tokens > 0:
        for d in range(min(old.data_degree, new.data_degree)):
            cache_req[d] = (d, 8, cached_tokens)
    mapping = mapper.map_devices(
        meta,
        devices,
        new,
        pipeline_inheritance={d: d for d in range(min(old.data_degree, new.data_degree))},
    )
    planner = planner or MigrationPlanner(model)
    return planner.plan(meta, mapping, cache_req), mapping


class TestMigrationPlan:
    def test_no_change_means_empty_plan(self):
        config = ParallelConfig(2, 3, 4, 8)
        plan, _ = plan_transition(GPT_20B, config, config, num_instances=6)
        assert plan.is_empty
        assert plan.migration_time == pytest.approx(0.0)
        assert plan.peak_buffer_bytes == 0.0

    def test_reconfiguration_moves_missing_context_only(self):
        old = ParallelConfig(1, 2, 8, 8)
        new = ParallelConfig(1, 3, 4, 8)
        plan, mapping = plan_transition(GPT_20B, old, new, num_instances=4)
        assert plan.total_bytes > 0
        assert plan.total_bytes == pytest.approx(mapping.transfer_bytes, rel=0.05)
        assert plan.total_time > 0
        assert plan.storage_load_time == 0.0

    def test_progressive_stall_is_at_most_total_time(self):
        # The memory-optimised planner resumes progressively; the naive
        # ablation blocks for the whole migration.
        old = ParallelConfig(1, 2, 8, 8)
        new = ParallelConfig(1, 3, 4, 8)
        progressive = MigrationPlanner(GPT_20B, memory_optimized=True)
        blocking = MigrationPlanner(GPT_20B, memory_optimized=False)
        plan_prog, _ = plan_transition(GPT_20B, old, new, 4, planner=progressive)
        plan_block, _ = plan_transition(GPT_20B, old, new, 4, planner=blocking)
        assert plan_prog.stall_time <= plan_prog.total_time + 1e-9
        assert plan_block.stall_time == pytest.approx(plan_block.total_time)
        assert plan_prog.stall_time < plan_block.stall_time

    @pytest.mark.parametrize(
        "model, old, new, num_instances, cached_tokens",
        [
            pytest.param(GPT_20B, (1, 2, 8, 8), (1, 3, 4, 8), 4, 0, id="20b-reshape"),
            pytest.param(GPT_20B, (1, 2, 8, 8), (1, 3, 4, 8), 4, 256, id="20b-reshape-cache"),
            pytest.param(GPT_20B, (1, 3, 4, 8), (2, 3, 4, 8), 6, 0, id="20b-add-pipeline"),
            pytest.param(OPT_6_7B, (1, 2, 4, 8), (2, 2, 2, 8), 2, 128, id="6.7b-split-cache"),
        ],
    )
    def test_only_the_memory_optimized_planner_resumes_progressively(
        self, model, old, new, num_instances, cached_tokens
    ):
        plans = {
            memory_optimized: plan_transition(
                model,
                ParallelConfig(*old),
                ParallelConfig(*new),
                num_instances,
                planner=MigrationPlanner(model, memory_optimized=memory_optimized),
                cached_tokens=cached_tokens,
            )[0]
            for memory_optimized in (True, False)
        }
        naive, optimized = plans[False], plans[True]
        assert naive.total_time > 0
        assert naive.stall_time == pytest.approx(naive.total_time)
        assert optimized.stall_time <= optimized.total_time + 1e-9
        assert optimized.stall_time < naive.stall_time

    def test_memory_optimized_ordering_respects_buffer_bound(self):
        old = ParallelConfig(1, 2, 8, 8)
        new = ParallelConfig(1, 3, 4, 8)
        planner = MigrationPlanner(
            GPT_20B, max_buffer_bytes=DEFAULT_MIGRATION_BUFFER_BYTES, memory_optimized=True
        )
        plan, _ = plan_transition(GPT_20B, old, new, 4, planner=planner)
        assert plan.layer_order != list(range(GPT_20B.num_layers)) or plan.peak_buffer_bytes <= DEFAULT_MIGRATION_BUFFER_BYTES * 1.01
        assert sorted(plan.layer_order) == list(range(GPT_20B.num_layers))

    def test_memory_optimized_never_increases_peak_buffer(self):
        old = ParallelConfig(1, 2, 8, 8)
        new = ParallelConfig(1, 3, 4, 8)
        optimized = MigrationPlanner(GPT_20B, memory_optimized=True)
        naive = MigrationPlanner(GPT_20B, memory_optimized=False)
        plan_opt, _ = plan_transition(GPT_20B, old, new, 4, planner=optimized)
        plan_naive, _ = plan_transition(GPT_20B, old, new, 4, planner=naive)
        assert plan_opt.peak_buffer_bytes <= plan_naive.peak_buffer_bytes + 1e-6
        assert plan_opt.total_bytes == pytest.approx(plan_naive.total_bytes, rel=1e-6)

    def test_cache_step_comes_first_and_carries_cache_bytes(self):
        old = ParallelConfig(1, 2, 8, 8)
        new = ParallelConfig(1, 3, 4, 8)
        plan, _ = plan_transition(GPT_20B, old, new, 4, cached_tokens=576)
        assert plan.steps
        assert plan.steps[0].kind == "cache"
        assert plan.steps[0].total_bytes > 0
        assert all(step.kind == "weight" for step in plan.steps[1:])

    def test_lost_replica_falls_back_to_storage(self):
        """If no surviving GPU holds a slice, it must be fetched from storage."""
        meta = MetaContextManager()
        old_devices = devices_for(1)
        old = ParallelConfig(1, 1, 4, 8)
        deploy(meta, old_devices, old)
        # The original instance disappears entirely; new, empty devices arrive.
        meta.drop_instance("inst-00")
        new_devices = [("inst-99", g) for g in range(4)]
        for device in new_devices:
            meta.daemon(device)
        mapping = DeviceMapper(OPT_6_7B).map_devices(meta, new_devices, old)
        plan = MigrationPlanner(OPT_6_7B).plan(meta, mapping, {})
        assert plan.storage_load_time > 0
        assert plan.total_bytes == pytest.approx(0.0)
        assert plan.migration_time >= plan.storage_load_time

    def test_stages_ready_markers_cover_all_stages(self):
        old = ParallelConfig(1, 2, 8, 8)
        new = ParallelConfig(1, 3, 4, 8)
        plan, _ = plan_transition(GPT_20B, old, new, 4)
        ready = [stage for step in plan.steps for stage in step.stages_ready]
        assert sorted(ready) == list(range(new.pipeline_degree))

    def test_stage_markers_follow_the_stage_layer_partition(self):
        """A stage is ready on the step of the last of its own layers to move.

        At P = 20, GPT-20B's 44 layers split at fractional boundaries, and
        ``int(layer / (L / P))`` puts layer 33 in stage 14 while
        ``stage_layers``, which every transfer is built from, gives it to
        stage 15 (layers 33-35).  Layers move in index order here, so
        layer 33 moves after stage 14's last layer, 32.
        """
        pipeline_degree = 20
        old = ParallelConfig(1, 4, 4, 8)
        new = ParallelConfig(1, pipeline_degree, 1, 8)
        planner = MigrationPlanner(GPT_20B, memory_optimized=False)
        plan, _ = plan_transition(GPT_20B, old, new, num_instances=5, planner=planner)
        assert plan.layer_order == list(range(GPT_20B.num_layers))
        assert stage_layers(GPT_20B.num_layers, pipeline_degree, 15) == (33, 34, 35)
        marker_layer = {
            stage: step.layer_index for step in plan.steps for stage in step.stages_ready
        }
        assert sorted(marker_layer) == list(range(pipeline_degree))
        for stage in range(pipeline_degree):
            layers = stage_layers(GPT_20B.num_layers, pipeline_degree, stage)
            assert marker_layer[stage] == max(layers, key=plan.layer_order.index)


class TestRestartPlan:
    def test_restart_time_scales_with_model_size(self):
        """At the same parallelism a bigger model means more bytes per instance."""
        small = restart_stall_time(OPT_6_7B, ParallelConfig(1, 2, 4, 8), 4)
        large = restart_stall_time(GPT_20B, ParallelConfig(1, 2, 4, 8), 4)
        assert large > small
        assert small > 0

    def test_restart_time_matches_per_instance_load(self):
        config = ParallelConfig(2, 3, 4, 8)
        stall = restart_stall_time(GPT_20B, config, gpus_per_instance=4)
        per_instance_bytes = GPT_20B.total_param_bytes / 12 * 4
        expected = per_instance_bytes / DEFAULT_STORAGE_BANDWIDTH + ENGINE_RESTART_TIME
        assert stall == pytest.approx(expected)

    def test_120b_model_restart_takes_minutes(self):
        """The paper observes >2 minutes to load a 120B-parameter GPT."""
        from repro.llm.spec import ModelSpec

        gpt_120b = ModelSpec(name="GPT-120B", num_layers=96, hidden_size=10240, num_heads=80)
        assert restart_stall_time(gpt_120b, ParallelConfig(1, 8, 4, 1), 4) > 60.0
