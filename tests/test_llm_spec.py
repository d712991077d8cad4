"""Tests for the LLM model catalog and geometry-derived sizes."""

import pytest
from hypothesis import given, strategies as st

from repro.llm.spec import (
    GPT_20B,
    LLAMA_30B,
    MODEL_CATALOG,
    OPT_6_7B,
    ModelSpec,
    get_model,
)

GB = 1024 ** 3

#: Parameter sizes reported in Table 1 of the paper (GB).
TABLE1_SIZES_GB = {"OPT-6.7B": 25.0, "GPT-20B": 74.5, "LLaMA-30B": 111.8}


class TestCatalog:
    def test_catalog_contains_paper_models(self):
        assert set(TABLE1_SIZES_GB) <= set(MODEL_CATALOG)

    def test_get_model_case_insensitive(self):
        assert get_model("gpt-20b") is GPT_20B

    def test_get_model_unknown_raises(self):
        with pytest.raises(KeyError):
            get_model("GPT-9000B")

    @pytest.mark.parametrize("name,size_gb", sorted(TABLE1_SIZES_GB.items()))
    def test_parameter_sizes_match_table1(self, name, size_gb):
        """Derived parameter bytes should land within ~12% of Table 1."""
        spec = get_model(name)
        derived_gb = spec.total_param_bytes / GB
        assert derived_gb == pytest.approx(size_gb, rel=0.12)


class TestGeometry:
    def test_invalid_heads_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(name="bad", num_layers=2, hidden_size=100, num_heads=3)

    def test_invalid_layers_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(name="bad", num_layers=0, hidden_size=128, num_heads=2)

    def test_layer_params_scale_with_hidden_size(self):
        small = ModelSpec(name="s", num_layers=4, hidden_size=1024, num_heads=8)
        large = ModelSpec(name="l", num_layers=4, hidden_size=2048, num_heads=8)
        assert large.params_per_layer > 3 * small.params_per_layer

    def test_total_params_include_embeddings(self):
        spec = OPT_6_7B
        assert spec.total_params == spec.num_layers * spec.params_per_layer + spec.embedding_params


class TestKVCache:
    def test_kv_cache_linear_in_tokens(self):
        one = GPT_20B.kv_cache_bytes(1)
        many = GPT_20B.kv_cache_bytes(128)
        assert many == pytest.approx(128 * one)

    def test_kv_cache_linear_in_batch(self):
        single = GPT_20B.kv_cache_bytes(64, batch_size=1)
        batched = GPT_20B.kv_cache_bytes(64, batch_size=8)
        assert batched == pytest.approx(8 * single)

    def test_kv_cache_per_token_matches_formula(self):
        spec = OPT_6_7B
        expected = 2 * spec.num_layers * spec.hidden_size * spec.bytes_per_cache_element
        assert spec.kv_cache_bytes_per_token() == pytest.approx(expected)

    def test_llama_13b_scale_sanity(self):
        """The paper quotes ~1.7 GB per sequence for LLaMA-13B; our 30B model
        with S_in+S_out ~ 640 tokens should be on the same order (a few GB)."""
        per_seq = LLAMA_30B.kv_cache_bytes(640, batch_size=1) / GB
        assert 0.5 < per_seq < 4.0

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            OPT_6_7B.kv_cache_bytes_per_token(batch_size=0)

    def test_negative_sequence_rejected(self):
        with pytest.raises(ValueError):
            OPT_6_7B.kv_cache_bytes(-1)


class TestFlops:
    def test_flops_grow_with_context(self):
        assert GPT_20B.flops_per_token(2048) > GPT_20B.flops_per_token(1)

    def test_flops_dominated_by_matmul_term(self):
        spec = GPT_20B
        flops = spec.flops_per_token(512)
        assert flops == pytest.approx(2.0 * spec.num_layers * spec.params_per_layer, rel=0.25)

    @given(st.integers(min_value=1, max_value=4096))
    def test_flops_positive(self, context):
        assert OPT_6_7B.flops_per_token(context) > 0
