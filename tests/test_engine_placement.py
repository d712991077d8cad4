"""Tests for device-mesh placement math and the scalar context-overlap reference."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.placement import (
    TopologyPosition,
    mesh_positions,
    position_cache_bytes,
    position_model_bytes,
    shard_interval,
    stage_layer_range,
)
from repro.llm.spec import GPT_20B, OPT_6_7B

from oracles.device_mapper import cache_context_overlap_bytes, model_context_overlap_bytes


class TestTopology:
    def test_mesh_positions_count_and_uniqueness(self):
        positions = mesh_positions(2, 3, 4)
        assert len(positions) == 24
        assert len(set(positions)) == 24

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            TopologyPosition(-1, 0, 0)

    def test_invalid_mesh_rejected(self):
        with pytest.raises(ValueError):
            mesh_positions(0, 1, 1)

    def test_stage_layer_ranges_partition_the_model(self):
        total = 0.0
        for stage in range(3):
            start, end = stage_layer_range(44, 3, stage)
            total += end - start
        assert total == pytest.approx(44.0)

    def test_shard_intervals_partition_unit(self):
        total = sum(
            shard_interval(8, shard)[1] - shard_interval(8, shard)[0] for shard in range(8)
        )
        assert total == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            stage_layer_range(44, 3, 3)
        with pytest.raises(ValueError):
            shard_interval(4, 4)


class TestModelOverlap:
    def test_identical_position_full_reuse(self):
        position = TopologyPosition(0, 1, 2)
        overlap = model_context_overlap_bytes(GPT_20B, 2, 4, position, 2, 4, position)
        assert overlap == pytest.approx(position_model_bytes(GPT_20B, 2, 4))

    def test_disjoint_stages_zero_reuse(self):
        old = TopologyPosition(0, 0, 0)
        new = TopologyPosition(0, 1, 0)
        assert model_context_overlap_bytes(GPT_20B, 2, 1, old, 2, 1, new) == 0.0

    def test_disjoint_shards_zero_reuse(self):
        old = TopologyPosition(0, 0, 0)
        new = TopologyPosition(0, 0, 1)
        assert model_context_overlap_bytes(GPT_20B, 1, 2, old, 1, 2, new) == 0.0

    def test_data_parallel_index_is_irrelevant_for_model_context(self):
        old = TopologyPosition(0, 0, 0)
        new_same = TopologyPosition(0, 0, 0)
        new_other = TopologyPosition(1, 0, 0)
        a = model_context_overlap_bytes(GPT_20B, 2, 4, old, 2, 4, new_same)
        b = model_context_overlap_bytes(GPT_20B, 2, 4, old, 2, 4, new_other)
        assert a == pytest.approx(b)

    def test_paper_figure4b_example(self):
        """Figure 4b: u1 holds (stage 0, shard 1 of 2) under (P=2, M=2); it
        overlaps the most model context with the first-stage positions of the
        new (P=3, M=1) configuration."""
        u1_position = TopologyPosition(0, 0, 1)
        v_first_stage = TopologyPosition(0, 0, 0)
        v_last_stage = TopologyPosition(0, 2, 0)
        first = model_context_overlap_bytes(OPT_6_7B, 2, 2, u1_position, 3, 1, v_first_stage)
        last = model_context_overlap_bytes(OPT_6_7B, 2, 2, u1_position, 3, 1, v_last_stage)
        assert first > 0
        assert last == 0.0

    @given(
        old_p=st.sampled_from([1, 2, 4]),
        old_m=st.sampled_from([1, 2, 4, 8]),
        new_p=st.sampled_from([1, 2, 3, 4]),
        new_m=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_overlap_bounded_by_both_slices(self, old_p, old_m, new_p, new_m):
        old = TopologyPosition(0, old_p - 1, old_m - 1)
        new = TopologyPosition(0, new_p - 1, new_m - 1)
        overlap = model_context_overlap_bytes(GPT_20B, old_p, old_m, old, new_p, new_m, new)
        assert overlap <= position_model_bytes(GPT_20B, old_p, old_m) + 1.0
        assert overlap <= position_model_bytes(GPT_20B, new_p, new_m) + 1.0
        assert overlap >= 0

    @given(
        old_p=st.sampled_from([1, 2, 4]),
        new_p=st.sampled_from([1, 2, 3]),
        m=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_total_overlap_over_new_mesh_equals_old_slice(self, old_p, new_p, m):
        """Summed over every new position, an old slice is fully accounted for
        (the new mesh covers the whole model)."""
        old = TopologyPosition(0, 0, 0)
        total = sum(
            model_context_overlap_bytes(GPT_20B, old_p, m, old, new_p, m, new)
            for new in mesh_positions(1, new_p, m)
        )
        assert total == pytest.approx(position_model_bytes(GPT_20B, old_p, m), rel=1e-6)


class TestCacheOverlap:
    def test_requires_inheritance(self):
        position = TopologyPosition(0, 0, 0)
        with_inherit = cache_context_overlap_bytes(
            GPT_20B, 100, 4, 2, 2, position, 2, 2, position, inherits_requests=True
        )
        without = cache_context_overlap_bytes(
            GPT_20B, 100, 4, 2, 2, position, 2, 2, position, inherits_requests=False
        )
        assert with_inherit > 0
        assert without == 0.0

    def test_zero_tokens_zero_cache(self):
        position = TopologyPosition(0, 0, 0)
        assert cache_context_overlap_bytes(GPT_20B, 0, 4, 2, 2, position, 2, 2, position) == 0.0

    def test_scales_with_tokens_and_batch(self):
        position = TopologyPosition(0, 0, 0)
        base = cache_context_overlap_bytes(GPT_20B, 100, 1, 2, 2, position, 2, 2, position)
        more_tokens = cache_context_overlap_bytes(GPT_20B, 200, 1, 2, 2, position, 2, 2, position)
        more_batch = cache_context_overlap_bytes(GPT_20B, 100, 4, 2, 2, position, 2, 2, position)
        assert more_tokens == pytest.approx(2 * base)
        assert more_batch == pytest.approx(4 * base)

    def test_position_cache_bytes_partition(self):
        total = GPT_20B.kv_cache_bytes(100, 4)
        per_position = position_cache_bytes(GPT_20B, 100, 4, 2, 8)
        assert per_position * 16 == pytest.approx(total)
        assert position_cache_bytes(GPT_20B, 0, 4, 2, 8) == 0.0
