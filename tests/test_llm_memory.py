"""Tests for the per-GPU memory model (Table 1's min-GPU column)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.llm.hardware import GB, TFLOP, GPUSpec, T4
from repro.llm.memory import MemoryModel
from repro.llm.spec import GPT_20B, LLAMA_30B, OPT_6_7B, get_model

#: Table 1: minimum GPU counts on 16 GB T4s (4 GPUs per instance).
TABLE1_MIN_GPUS = {"OPT-6.7B": 4, "GPT-20B": 12, "LLaMA-30B": 16}


class TestTable1MinGpus:
    @pytest.mark.parametrize("name,expected", sorted(TABLE1_MIN_GPUS.items()))
    def test_min_gpus_matches_table1(self, name, expected):
        model = MemoryModel(get_model(name), T4)
        assert model.min_gpus(batch_size=8) == expected

    @pytest.mark.parametrize("name", sorted(TABLE1_MIN_GPUS))
    def test_paper_reference_layout_fits(self, name):
        """The (P, M) layouts listed in Table 1 must be memory-feasible."""
        reference = {"OPT-6.7B": (1, 4), "GPT-20B": (3, 4), "LLaMA-30B": (2, 8)}
        p, m = reference[name]
        model = MemoryModel(get_model(name), T4)
        assert model.fits(p, m, batch_size=8)

    def test_a100_needs_fewer_gpus(self):
        a100 = GPUSpec(
            name="A100-40GB",
            memory_bytes=40 * GB,
            fp16_flops=312 * TFLOP,
            fp32_flops=19.5 * TFLOP,
            memory_bandwidth=1555 * GB,
        )
        t4 = MemoryModel(GPT_20B, T4).min_gpus(batch_size=8)
        assert MemoryModel(GPT_20B, a100).min_gpus(batch_size=8) < t4


class TestFootprintComponents:
    def test_param_bytes_shrink_with_parallelism(self):
        model = MemoryModel(GPT_20B)
        assert model.param_bytes_per_gpu(2, 4) < model.param_bytes_per_gpu(1, 4)
        assert model.param_bytes_per_gpu(2, 4) == pytest.approx(
            GPT_20B.total_param_bytes / 8
        )

    def test_kv_cache_bytes_scale_with_batch(self):
        model = MemoryModel(GPT_20B)
        assert model.kv_cache_bytes_per_gpu(2, 4, 8) == pytest.approx(
            8 * model.kv_cache_bytes_per_gpu(2, 4, 1)
        )

    def test_migration_buffer_counts_against_capacity(self):
        model = MemoryModel(GPT_20B)
        without = model.per_gpu_bytes(3, 4, 8)
        with_buffer = model.per_gpu_bytes(3, 4, 8, migration_buffer_bytes=2 * 1024 ** 3)
        assert with_buffer == pytest.approx(without + 2 * 1024 ** 3)

    def test_headroom_sign_matches_fits(self):
        model = MemoryModel(LLAMA_30B)
        assert (model.headroom_bytes(2, 8, 8) >= 0) == model.fits(2, 8, 8)
        assert (model.headroom_bytes(1, 4, 8) >= 0) == model.fits(1, 4, 8)

    def test_invalid_degrees_rejected(self):
        model = MemoryModel(OPT_6_7B)
        with pytest.raises(ValueError):
            model.param_bytes_per_gpu(0, 4)
        with pytest.raises(ValueError):
            model.kv_cache_bytes_per_gpu(1, 1, 0)

    def test_best_layout_respects_geometry(self):
        model = MemoryModel(GPT_20B)
        layout = model.best_layout(12, batch_size=8)
        assert layout is not None
        p, m = layout
        assert p * m == 12
        assert GPT_20B.num_heads % m == 0

    def test_best_layout_none_when_too_small(self):
        assert MemoryModel(LLAMA_30B).best_layout(4, batch_size=8) is None


class TestMemoryMonotonicity:
    @given(
        p=st.integers(min_value=1, max_value=8),
        m=st.sampled_from([1, 2, 4, 8]),
        batch=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_more_tensor_parallelism_never_increases_footprint(self, p, m, batch):
        model = MemoryModel(GPT_20B)
        assert model.per_gpu_bytes(p, 2 * m, batch) < model.per_gpu_bytes(p, m, batch)

    @given(
        p=st.integers(min_value=1, max_value=8),
        m=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_larger_batch_never_decreases_footprint(self, p, m):
        model = MemoryModel(GPT_20B)
        assert model.per_gpu_bytes(p, m, 8) >= model.per_gpu_bytes(p, m, 1)

    def test_min_gpus_respects_instance_granularity(self):
        model = MemoryModel(GPT_20B)
        assert model.min_gpus(batch_size=8, gpus_per_instance=4) % 4 == 0
        assert model.min_gpus(batch_size=8, gpus_per_instance=1) <= model.min_gpus(
            batch_size=8, gpus_per_instance=4
        )
