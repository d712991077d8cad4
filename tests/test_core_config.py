"""Tests for parallel configurations and the configuration search space."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ConfigurationSpace, ParallelConfig
from repro.llm.memory import DEFAULT_MIGRATION_BUFFER_BYTES, MemoryModel
from repro.llm.spec import GPT_20B, LLAMA_30B, OPT_6_7B

from oracles import config as config_oracle


class TestParallelConfig:
    def test_derived_quantities(self):
        config = ParallelConfig(2, 3, 4, 8)
        assert config.num_gpus == 24
        assert config.gpus_per_pipeline == 12
        assert config.num_instances(4) == 6
        assert config.without_batch() == (2, 3, 4)

    def test_instance_count_rounds_up(self):
        assert ParallelConfig(1, 2, 3, 1).num_instances(4) == 2

    def test_invalid_components_rejected(self):
        with pytest.raises(ValueError):
            ParallelConfig(0, 1, 1, 1)
        with pytest.raises(ValueError):
            ParallelConfig(1, 1, 1, 0)
        with pytest.raises(ValueError):
            ParallelConfig(1, 2, 3, 1).num_instances(0)

    @pytest.mark.parametrize(
        "components",
        [(2.5, 1, 1), (math.nan, 1, 1), (1, 1, 1, math.inf)],
        ids=["fraction", "nan", "inf"],
    )
    def test_non_integer_components_rejected(self, components):
        with pytest.raises(ValueError, match="integers"):
            ParallelConfig(*components)

    def test_numpy_integer_components_accepted(self):
        assert ParallelConfig(np.int64(2), 1, 1).num_gpus == 2

    def test_compatibility_with_model_geometry(self):
        assert ParallelConfig(1, 2, 4, 1).is_compatible_with(GPT_20B)
        assert not ParallelConfig(1, 2, 5, 1).is_compatible_with(GPT_20B)
        assert not ParallelConfig(1, 100, 1, 1).is_compatible_with(GPT_20B)

    def test_ordering_and_equality(self):
        assert ParallelConfig(1, 2, 3, 4) == ParallelConfig(1, 2, 3, 4)
        assert ParallelConfig(1, 1, 1, 1) < ParallelConfig(2, 1, 1, 1)


class TestConfigurationSpace:
    def test_feasible_configs_respect_gpu_budget(self):
        space = ConfigurationSpace(GPT_20B)
        configs = space.feasible_configs(num_instances=4)
        assert configs
        assert all(config.num_gpus <= 16 for config in configs)

    def test_no_configs_without_instances(self):
        assert ConfigurationSpace(GPT_20B).feasible_configs(0) == []

    def test_all_configs_fit_memory(self):
        space = ConfigurationSpace(GPT_20B)
        for config in space.feasible_configs(3):
            assert space.fits(config)

    def test_head_divisibility_respected(self):
        space = ConfigurationSpace(LLAMA_30B)
        for config in space.feasible_configs(4):
            assert LLAMA_30B.num_heads % config.tensor_degree == 0

    def test_small_model_allows_small_fleets(self):
        space = ConfigurationSpace(OPT_6_7B)
        assert space.feasible_configs(1)

    def test_big_model_needs_more_instances(self):
        space = ConfigurationSpace(LLAMA_30B)
        assert space.feasible_configs(2) == []
        # Full-batch (B=8) serving of LLaMA-30B needs at least 4 instances
        # (16 GPUs, Table 1); 3 instances only admit small-batch configs.
        assert [c for c in space.feasible_configs(3) if c.batch_size == 8] == []
        assert [c for c in space.feasible_configs(4) if c.batch_size == 8]

    def test_migration_buffer_shrinks_space(self):
        roomy = ConfigurationSpace(GPT_20B)
        tight = ConfigurationSpace(GPT_20B, migration_buffer_bytes=GPT_20B.total_param_bytes / 16)
        assert len(tight.feasible_configs(3)) < len(roomy.feasible_configs(3))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gpus_per_instance": 0},
            {"migration_buffer_bytes": -1.0},
            {"migration_buffer_bytes": float("nan")},
            {"migration_buffer_bytes": float("inf")},
        ],
    )
    def test_impossible_inputs_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            ConfigurationSpace(OPT_6_7B, **kwargs)

    @pytest.mark.parametrize("buffer", ["none", "default", "sixteenth"])
    @pytest.mark.parametrize("model", [OPT_6_7B, GPT_20B, LLAMA_30B], ids=lambda m: m.name)
    def test_feasible_configs_match_nested_loop(self, model, buffer):
        """Each fleet size's mask over the rows equals the nested-loop
        enumeration, configuration for configuration and in order."""
        buffer_bytes = {
            "none": 0.0,
            "default": DEFAULT_MIGRATION_BUFFER_BYTES,
            "sixteenth": model.total_param_bytes / 16,
        }[buffer]
        space = ConfigurationSpace(model, migration_buffer_bytes=buffer_bytes)
        for fleet in range(0, 41):
            assert space.feasible_configs(fleet) == config_oracle.feasible_configs(
                space, fleet
            ), f"fleet={fleet}"

    @given(instances=st.integers(min_value=1, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_space_grows_with_fleet(self, instances):
        space = ConfigurationSpace(GPT_20B)
        smaller = len(space.feasible_configs(instances))
        larger = len(space.feasible_configs(instances + 1))
        assert larger >= smaller
