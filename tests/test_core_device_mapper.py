"""Tests for the KM-based device mapper."""

import pytest

from repro.core.config import ParallelConfig
from repro.core.device_mapper import DeviceMapper
from repro.engine.context import MetaContextManager
from repro.engine.placement import mesh_positions
from repro.llm.spec import GPT_20B, OPT_6_7B
from repro.workload.request import Request

from oracles import batching as batching_oracle
from oracles.device_mapper import reuse_weight


def devices_for(num_instances, gpus_per_instance=4):
    return [
        (f"inst-{i:02d}", g)
        for i in range(num_instances)
        for g in range(gpus_per_instance)
    ]


def install_configuration(meta, devices, config):
    """Install model contexts as if *config* were already deployed on *devices*."""
    positions = mesh_positions(config.data_degree, config.pipeline_degree, config.tensor_degree)
    placement = dict(zip(devices, positions))
    for device, position in placement.items():
        meta.daemon(device).install_model_context(
            config.pipeline_degree, config.tensor_degree, position
        )
    return placement


class TestMapping:
    def test_same_configuration_reuses_everything(self):
        meta = MetaContextManager()
        devices = devices_for(6)
        config = ParallelConfig(2, 3, 4, 8)
        install_configuration(meta, devices, config)
        mapper = DeviceMapper(GPT_20B)
        mapping = mapper.map_devices(meta, devices, config)
        assert mapping.reuse_fraction == pytest.approx(1.0)
        assert mapping.transfer_bytes == pytest.approx(0.0, abs=1e-3)

    def test_empty_cluster_requires_full_transfer(self):
        meta = MetaContextManager()
        devices = devices_for(6)
        config = ParallelConfig(2, 3, 4, 8)
        mapping = DeviceMapper(GPT_20B).map_devices(meta, devices, config)
        assert mapping.reused_bytes == pytest.approx(0.0)
        assert mapping.required_bytes > 0
        assert mapping.reuse_fraction == 0.0

    def test_every_position_gets_a_device(self):
        meta = MetaContextManager()
        devices = devices_for(6)
        old = ParallelConfig(2, 3, 4, 8)
        new = ParallelConfig(1, 2, 8, 8)
        install_configuration(meta, devices, old)
        mapping = DeviceMapper(GPT_20B).map_devices(meta, devices, new)
        assert set(mapping.placement.values()) == set(
            mesh_positions(new.data_degree, new.pipeline_degree, new.tensor_degree)
        )
        assert len(set(mapping.placement.values())) == new.num_gpus

    def test_not_enough_devices_rejected(self):
        meta = MetaContextManager()
        with pytest.raises(ValueError):
            DeviceMapper(GPT_20B).map_devices(meta, devices_for(1), ParallelConfig(2, 3, 4, 8))

    def test_optimal_reuses_at_least_as_much_as_greedy_and_arbitrary(self):
        meta = MetaContextManager()
        devices = devices_for(4)
        old = ParallelConfig(2, 2, 4, 8)
        new = ParallelConfig(1, 4, 4, 8)
        install_configuration(meta, devices, old)

        optimal = DeviceMapper(GPT_20B, use_optimal_matching=True).map_devices(
            meta, devices, new
        )
        greedy = DeviceMapper(GPT_20B, use_optimal_matching=False).map_devices(
            meta, devices, new
        )
        assert optimal.reused_bytes >= greedy.reused_bytes - 1e-6

        # An arbitrary (identity-order) placement is never better than KM.
        positions = mesh_positions(new.data_degree, new.pipeline_degree, new.tensor_degree)
        arbitrary = dict(zip(devices, positions))
        arbitrary_reuse = sum(
            reuse_weight(GPT_20B, meta, device, position, new)
            for device, position in arbitrary.items()
        )
        assert optimal.reused_bytes >= arbitrary_reuse - 1e-6

    def test_reconfiguration_between_paper_configs_reuses_substantial_context(self):
        """Figure 4a's transition (D=1, P=2, M=8) -> (D=1, P=3, M=4) keeps a
        substantial fraction of the model context in place (each new position
        can reuse at most half of its slice because the shard width doubles)."""
        meta = MetaContextManager()
        devices = devices_for(4)
        old = ParallelConfig(1, 2, 8, 8)
        install_configuration(meta, devices, old)
        new = ParallelConfig(1, 3, 4, 8)
        mapping = DeviceMapper(GPT_20B).map_devices(meta, devices, new)
        assert mapping.reuse_fraction > 0.25
        assert mapping.transfer_bytes < mapping.required_bytes

    def test_cache_reuse_prefers_inheriting_pipeline(self):
        """Figure 4b: the device holding pipeline 0's KV cache should be
        mapped into the new pipeline that inherits pipeline 0's requests."""
        meta = MetaContextManager()
        devices = devices_for(2)
        old = ParallelConfig(2, 2, 2, 4)
        placement = install_configuration(meta, devices, old)
        # Only pipeline 0 has decoding progress worth caching.
        for device, position in placement.items():
            if position.data_index == 0:
                meta.daemon(device).install_cache_context(
                    old.pipeline_degree,
                    old.tensor_degree,
                    position,
                    batch_size=4,
                    cached_tokens=600,
                )
        new = ParallelConfig(2, 2, 2, 4)
        mapping = DeviceMapper(OPT_6_7B).map_devices(
            meta, devices, new, pipeline_inheritance={0: 0, 1: 1}
        )
        holders = [
            device
            for device, position in placement.items()
            if position.data_index == 0
        ]
        for device in holders:
            assert mapping.placement[device].data_index == 0

    def test_hierarchical_matches_flat_reuse_on_aligned_groups(self):
        meta = MetaContextManager()
        devices = devices_for(6)
        old = ParallelConfig(2, 3, 4, 8)
        install_configuration(meta, devices, old)
        new = ParallelConfig(2, 3, 4, 8)
        mapper = DeviceMapper(GPT_20B)
        hier = mapper.map_devices(meta, devices, new)
        # The hierarchical placement reaches the reuse bound here, so
        # map_devices skips the flat matching: solve it directly.
        positions = mesh_positions(2, 3, 4)
        lookup = mapper._weight_lookup(meta, devices, positions, new, None)
        flat = mapper._flat_matching(lookup, devices, positions)
        flat_reused = mapper._placement_reuse(lookup, flat)
        assert hier.reused_bytes == pytest.approx(flat_reused, rel=1e-6)


class TestBatchSelection:
    def test_keeps_most_advanced_batches(self):
        batches = []
        for progress in (3, 10, 7):
            batch = batching_oracle.build([Request(arrival_time=0.0, output_tokens=32)])
            batch.commit_tokens(progress)
            batches.append(batch)
        kept, discarded = DeviceMapper.select_batches_to_keep(batches, capacity=2)
        assert [b.committed_tokens for b in kept] == [10, 7]
        assert [b.committed_tokens for b in discarded] == [3]

    def test_zero_capacity_discards_everything(self):
        batch = batching_oracle.build([Request(arrival_time=0.0)])
        kept, discarded = DeviceMapper.select_batches_to_keep([batch], capacity=0)
        assert kept == []
        assert discarded == [batch]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            DeviceMapper.select_batches_to_keep([], capacity=-1)
