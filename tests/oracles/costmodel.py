"""Scalar references for the cost model's ``l_exe`` and throughput ``phi(C)``.

:class:`~repro.llm.costmodel.LatencyModel` evaluates ``l_exe`` for many
``(P, M, B)`` shapes in one numpy pass.  Here it is the straightforward
per-token loop: the prefill, plus one decode iteration per output token
added to a running sum from left to right, plus the per-request overhead.
Each decode iteration is spelled out in full rather than split into the
shape terms the production model shares between its scalar and array
paths.  The production arrays must equal these sums bit for bit.

:func:`profile` is the per-configuration ``(l_exe, phi)`` pair that the
parallelization controller's cost table must reproduce row by row.
"""

from typing import Tuple

from repro.llm.costmodel import DEFAULT_INPUT_LENGTH, DEFAULT_OUTPUT_LENGTH, LatencyModel


def decode_iteration_raw(
    latency_model: LatencyModel,
    context_length: int,
    pipeline_degree: int,
    tensor_degree: int,
    batch_size: int,
) -> float:
    """Uncalibrated latency of one decode iteration at *context_length*."""
    model, params = latency_model.model, latency_model.params
    layers_per_stage = model.num_layers / pipeline_degree
    weight_bytes_per_gpu = (
        model.num_layers * model.layer_param_bytes
        + model.embedding_params * model.bytes_per_param
    ) / (pipeline_degree * tensor_degree)
    memory_time_per_stage = weight_bytes_per_gpu / (
        latency_model.gpu.memory_bandwidth * params.memory_efficiency
    )
    flops_per_stage = (
        batch_size
        * model.flops_per_token(context_length)
        * (layers_per_stage / model.num_layers)
        / tensor_degree
    )
    peak = latency_model._decode_peak_flops()
    compute_time_per_stage = flops_per_stage / (peak * params.decode_compute_efficiency)
    stage_time = max(memory_time_per_stage, compute_time_per_stage)
    allreduce = 2.0 * layers_per_stage * latency_model._allreduce_time(
        latency_model._activation_bytes(batch_size), tensor_degree
    )
    per_stage = stage_time + allreduce
    handoff = latency_model._pipeline_handoff_time(
        latency_model._activation_bytes(batch_size), pipeline_degree
    )
    return pipeline_degree * per_stage + handoff + params.per_iteration_overhead


def uncalibrated_l_exe(
    latency_model: LatencyModel,
    output_length: int,
    input_length: int,
    pipeline_degree: int,
    tensor_degree: int,
    batch_size: int,
) -> float:
    """Prefill plus ``output_length`` decode iterations, summed one by one."""
    prefill = latency_model._prefill_raw(
        input_length, pipeline_degree, tensor_degree, batch_size
    )
    decode = 0.0
    for i in range(1, output_length + 1):
        decode += decode_iteration_raw(
            latency_model, input_length + i, pipeline_degree, tensor_degree, batch_size
        )
    return prefill + decode + latency_model.params.per_request_overhead


def l_exe(
    latency_model: LatencyModel,
    pipeline_degree: int,
    tensor_degree: int,
    batch_size: int,
    input_length: int,
    output_length: int,
) -> float:
    """Calibrated ``l_exe``, with the model's own calibration factor."""
    return latency_model.calibration_factor * uncalibrated_l_exe(
        latency_model, output_length, input_length, pipeline_degree, tensor_degree, batch_size
    )


def profile(
    latency_model: LatencyModel,
    data_degree: int,
    pipeline_degree: int,
    tensor_degree: int,
    batch_size: int,
    input_length: int = DEFAULT_INPUT_LENGTH,
    output_length: int = DEFAULT_OUTPUT_LENGTH,
) -> Tuple[float, float]:
    """``(l_exe, phi)`` of one configuration, ``phi = D * B / l_exe``.

    ``D`` independent pipelines each complete a batch of ``B`` requests
    every ``l_exe`` seconds; the throughput is infinite where ``l_exe <= 0``.
    """
    latency = l_exe(
        latency_model, pipeline_degree, tensor_degree, batch_size, input_length, output_length
    )
    if latency <= 0:
        return latency, float("inf")
    return latency, data_degree * batch_size / latency
