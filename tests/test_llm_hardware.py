"""Tests for the GPU hardware spec."""

import pytest

from repro.llm.hardware import GB, GPUSpec, T4


class TestGPUSpec:
    def test_t4_matches_published_numbers(self):
        assert T4.memory_bytes == 16 * GB
        assert T4.memory_bandwidth == 300 * GB
        assert T4.fp32_flops < T4.fp16_flops

    def test_non_positive_characteristic_rejected(self):
        with pytest.raises(ValueError):
            GPUSpec(
                name="broken",
                memory_bytes=0,
                fp16_flops=1.0,
                fp32_flops=1.0,
                memory_bandwidth=1.0,
            )
        with pytest.raises(ValueError):
            GPUSpec(
                name="broken",
                memory_bytes=1.0,
                fp16_flops=1.0,
                fp32_flops=-1.0,
                memory_bandwidth=1.0,
            )

    def test_specs_are_immutable(self):
        with pytest.raises(Exception):
            T4.memory_bytes = 1
