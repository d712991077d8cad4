"""Tests for the offline configuration profiler."""

import numpy as np
import pytest

from repro.llm.costmodel import DEFAULT_INPUT_LENGTH, DEFAULT_OUTPUT_LENGTH, LatencyModel
from repro.llm.hardware import T4
from repro.llm.memory import MemoryModel
from repro.llm.profiler import OfflineProfiler
from repro.llm.spec import get_model


@pytest.fixture(scope="module")
def profiler():
    model = get_model("OPT-6.7B")
    latency_model = LatencyModel(model, T4)
    return OfflineProfiler(latency_model, MemoryModel(model, T4))


class TestProfile:
    def test_entry_fields_are_positive(self, profiler):
        entry = profiler.profile(1, 2, 2, 4)
        assert entry.latency > 0
        assert entry.throughput > 0

    def test_num_gpus(self, profiler):
        entry = profiler.profile(2, 3, 4, 1)
        assert entry.num_gpus == 24

    def test_data_parallel_replicas_scale_throughput(self, profiler):
        one = profiler.profile(1, 1, 4, 4)
        two = profiler.profile(2, 1, 4, 4)
        assert two.throughput == pytest.approx(2.0 * one.throughput)
        # Execution latency of a single batch does not change with replicas.
        assert two.latency == pytest.approx(one.latency)


class TestColumns:
    def test_columns_equal_per_config_profiles(self, profiler):
        """The vectorised columns reproduce ``profile`` bit for bit."""
        configs = [
            (d, p, m, b) for d in (1, 3) for p in (1, 2, 5) for m in (1, 4, 8) for b in (1, 8)
        ]
        shapes = [(p, m, b) for _, p, m, b in configs]
        latencies = profiler.latencies(shapes)
        data = np.array([d for d, _, _, _ in configs])
        batch = np.array([b for _, _, _, b in configs])
        throughputs = profiler.throughputs(data, batch, latencies)
        for i, config in enumerate(configs):
            entry = profiler.profile(*config)
            assert latencies[i] == entry.latency
            assert throughputs[i] == entry.throughput

    def test_profiles_at_the_paper_lengths(self):
        latency_model = LatencyModel(get_model("OPT-6.7B"), T4)
        profiler = OfflineProfiler(latency_model)
        expected = latency_model.l_exe(1, 4, 2, DEFAULT_INPUT_LENGTH, DEFAULT_OUTPUT_LENGTH)
        assert profiler.latencies([(1, 4, 2)])[0] == expected
        assert profiler.profile(1, 1, 4, 2).latency == expected

    def test_non_positive_latency_has_infinite_throughput(self):
        latencies = np.array([2.0, 0.0])
        throughputs = OfflineProfiler.throughputs(np.array([1, 1]), np.array([4, 4]), latencies)
        assert list(throughputs) == [2.0, float("inf")]
