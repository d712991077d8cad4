"""Tests for the analytic latency/throughput cost model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.llm.costmodel import (
    DEFAULT_INPUT_LENGTH,
    DEFAULT_OUTPUT_LENGTH,
    TABLE1_REFERENCE,
    CostModelParams,
    LatencyModel,
)
from repro.llm.spec import GPT_20B, OPT_6_7B, ModelSpec

from oracles import costmodel as costmodel_oracle


class TestCalibration:
    @pytest.mark.parametrize("name", sorted(TABLE1_REFERENCE))
    def test_reference_latency_reproduced_exactly(self, name):
        """Table 1's l_exe(B=1) numbers are reproduced at the reference configs."""
        (p, m), target = TABLE1_REFERENCE[name]
        model = LatencyModel(name)
        assert model.l_exe(p, m, 1) == pytest.approx(target, rel=1e-6)

    def test_calibration_factor_is_moderate(self):
        """The analytic model should be in the right ballpark before calibration."""
        for name in TABLE1_REFERENCE:
            factor = LatencyModel(name).calibration_factor
            assert 0.3 < factor < 3.0

    def test_uncalibrated_model_has_unit_factor(self):
        # A model outside Table 1 has no reference latency to fit.
        custom = ModelSpec(name="custom-1B", num_layers=8, hidden_size=2048, num_heads=16)
        assert custom.name not in TABLE1_REFERENCE
        assert LatencyModel(custom).calibration_factor == 1.0


class TestLatencyStructure:
    def test_latency_increases_with_output_length(self):
        model = LatencyModel(GPT_20B)
        assert model.l_exe(3, 4, 1, output_length=256) > model.l_exe(3, 4, 1, output_length=64)

    def test_latency_increases_with_batch_size(self):
        model = LatencyModel(GPT_20B)
        assert model.l_exe(3, 4, 8) > model.l_exe(3, 4, 1)

    def test_batch8_latency_well_below_8x(self):
        """Batching amortises weight streaming: 8x the requests must cost far
        less than 8x the latency (this is what makes large batches raise
        throughput)."""
        model = LatencyModel(GPT_20B)
        assert model.l_exe(3, 4, 8) < 4.0 * model.l_exe(3, 4, 1)

    def test_eq1_decomposition(self):
        """l_exe ~= prefill + S_out * t_exe(1) (Eq. 2)."""
        model = LatencyModel(OPT_6_7B)
        p, m, b = 1, 4, 1
        approx = model.prefill_time(p, m, b) + DEFAULT_OUTPUT_LENGTH * model.decode_iteration_time(p, m, b)
        assert model.l_exe(p, m, b) == pytest.approx(approx, rel=0.1)

    def test_oversharding_penalised(self):
        """Spanning instances with tensor parallelism (M=8 on 4-GPU boxes)
        must pay more collective latency than M=4 at the same GPU count."""
        model = LatencyModel(GPT_20B)
        per_iter_m8 = model.decode_iteration_time(2, 8, 1)
        per_iter_m4 = model.decode_iteration_time(4, 4, 1)
        assert per_iter_m8 > per_iter_m4

    def test_more_gpus_reduce_iteration_time(self):
        model = LatencyModel(GPT_20B)
        assert model.decode_iteration_time(2, 4, 1) < model.decode_iteration_time(4, 2, 1) * 1.01
        assert model.decode_iteration_time(1, 4, 1) < model.decode_iteration_time(2, 2, 1) * 1.01

    def test_invalid_parallelism_rejected(self):
        model = LatencyModel(GPT_20B)
        with pytest.raises(ValueError):
            model.l_exe(0, 4, 1)
        with pytest.raises(ValueError):
            model.l_exe(3, 4, 0)

    @given(
        p=st.sampled_from([1, 2, 3, 4]),
        m=st.sampled_from([1, 2, 4, 8]),
        b=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=30, deadline=None)
    def test_latencies_are_positive_and_finite(self, p, m, b):
        model = LatencyModel(GPT_20B)
        latency = model.l_exe(p, m, b)
        assert 0 < latency < 10_000


def throughput(model, data_degree, pipeline_degree, tensor_degree, batch_size):
    """``phi(C) = D * B / l_exe``: D pipelines each finish B requests per ``l_exe``."""
    latency = LatencyModel(model).l_exe(pipeline_degree, tensor_degree, batch_size)
    return data_degree * batch_size / latency


class TestThroughput:
    """Pipeline capacities the paper's narrative relies on.

    Table 1's LLaMA-30B shape (2, 8) is outside the memory-feasible space,
    so these read ``l_exe`` directly rather than the controller's table.
    """

    def test_single_pipeline_overloads_at_paper_rate(self):
        """The Figure 6 narrative: one (2, 8) pipeline cannot sustain the
        0.35 req/s GPT-20B arrival rate, two can."""
        assert throughput("GPT-20B", 1, 2, 8, 8) < 0.35
        assert throughput("GPT-20B", 2, 2, 8, 8) >= 0.35

    def test_llama_pipeline_capacity(self):
        """One LLaMA-30B pipeline is marginal at 0.2 req/s; two are comfortable."""
        assert 0.1 < throughput("LLaMA-30B", 1, 2, 8, 8) < 0.35
        assert throughput("LLaMA-30B", 2, 2, 8, 8) >= 1.5 * 0.2

    def test_opt_pipeline_capacity(self):
        """A handful of OPT-6.7B pipelines cover 1.5 req/s."""
        per_pipeline = throughput("OPT-6.7B", 1, 1, 4, 8)
        assert per_pipeline > 0.3
        assert 3 * per_pipeline >= 1.5


class TestCostModelParams:
    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ValueError):
            CostModelParams(memory_efficiency=0.0)
        with pytest.raises(ValueError):
            CostModelParams(decode_compute_efficiency=1.5)

    def test_invalid_gpus_per_instance_rejected(self):
        with pytest.raises(ValueError):
            CostModelParams(gpus_per_instance=0)


def every_shape(model):
    """Every (P, M, B) with P up to the layer count, M in {1,2,4,8}
    dividing the heads, and B in {1,2,4,8}."""
    return [
        (p, m, b)
        for m in (1, 2, 4, 8)
        if model.num_heads % m == 0
        for p in range(1, model.num_layers + 1)
        for b in (1, 2, 4, 8)
    ]


class TestVectorisedLExe:
    @pytest.mark.parametrize("lengths", [(512, 128), (128, 1), (2048, 0)])
    @pytest.mark.parametrize(
        "name, count", [("OPT-6.7B", 512), ("GPT-20B", 704), ("LLaMA-30B", 720)]
    )
    def test_equals_per_token_loop_on_every_shape(self, name, count, lengths):
        """``==``, not approx: the decode terms are summed in loop order."""
        input_length, output_length = lengths
        model = LatencyModel(name)
        shapes = every_shape(model.model)
        assert len(shapes) == count
        raw = model._uncalibrated_l_exe_many(output_length, input_length, shapes)
        calibrated = model.l_exe_many(shapes, input_length, output_length)
        for i, shape in enumerate(shapes):
            reference = costmodel_oracle.uncalibrated_l_exe(
                model, output_length, input_length, *shape
            )
            assert raw[i] == reference, shape
            assert calibrated[i] == model.calibration_factor * reference, shape
        # The scalar entry point runs the same code with one shape.
        for i in range(0, count, 37):
            assert model.l_exe(*shapes[i], input_length, output_length) == calibrated[i]

    def test_decode_iteration_equals_reference(self):
        model = LatencyModel(GPT_20B)
        for shape in [(1, 1, 1), (3, 4, 8), (2, 8, 4), (44, 2, 2)]:
            for context_length in (0, 1, 513, 2048):
                assert model._decode_iteration_raw(
                    context_length, *shape
                ) == costmodel_oracle.decode_iteration_raw(model, context_length, *shape)

    @pytest.mark.parametrize("name", sorted(TABLE1_REFERENCE))
    def test_calibration_uses_the_reference_sum(self, name):
        (p, m), target = TABLE1_REFERENCE[name]
        model = LatencyModel(name)
        raw = costmodel_oracle.uncalibrated_l_exe(
            model, DEFAULT_OUTPUT_LENGTH, DEFAULT_INPUT_LENGTH, p, m, 1
        )
        assert model.calibration_factor == target / raw

    def test_invalid_shapes_rejected(self):
        model = LatencyModel(GPT_20B)
        with pytest.raises(ValueError, match="parallel degrees"):
            model.l_exe_many([(3, 4, 1), (0, 4, 1)])
        with pytest.raises(ValueError, match="parallel degrees"):
            model.l_exe_many([(3, 0, 1)])
        with pytest.raises(ValueError, match="batch_size"):
            model.l_exe_many([(3, 4, 0)])

    def test_no_output_tokens_is_prefill_plus_overhead(self):
        model = LatencyModel(GPT_20B)
        expected = model.calibration_factor * (
            model._prefill_raw(DEFAULT_INPUT_LENGTH, 3, 4, 2) + model.params.per_request_overhead
        )
        assert model.l_exe(3, 4, 2, output_length=0) == expected
        assert list(model.l_exe_many([])) == []
