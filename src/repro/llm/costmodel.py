"""Analytical latency / throughput cost model for distributed LLM inference.

SpotServe's parallelization controller, migration planner and interruption
arranger all consume an *offline-profiled* cost model (Section 5 of the
paper): given a parallel configuration they need the execution latency
``l_exe(S_out | S_in)`` of Eq. (1)/(2), the per-iteration decoding latency
``t_exe(1)``, and the serving throughput ``phi(C)`` that follows from it.

The original system profiles FasterTransformer on real T4 GPUs.  Without
GPUs, this module provides an analytic roofline-style model:

* the **prefill** (initial) phase is compute bound,
* each **decoding iteration** is memory-bandwidth bound (it must stream every
  resident parameter once) with a compute lower bound,
* **tensor parallelism** adds two all-reduces per layer whose cost depends on
  whether the shards fit inside one instance (PCIe/NVLink) or span instances
  (Ethernet) -- this reproduces the "over-sharded intra-op parallelism"
  under-utilisation effect called out in Section 5,
* **pipeline parallelism** serialises stages for a single batch and adds
  (P-1) activation hand-offs.

A per-model calibration factor is fitted against the single-request latencies
published in Table 1 so that absolute numbers land in the paper's range; all
relative behaviour comes from the analytic structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..sim.network import NetworkSpec
from .hardware import GPUSpec, T4
from .spec import ModelSpec, get_model

#: Reference decoding lengths used throughout the paper's evaluation.
DEFAULT_INPUT_LENGTH = 512
DEFAULT_OUTPUT_LENGTH = 128

#: Table 1 single-request latencies (seconds) used for calibration:
#: model name -> ((P, M), l_exe with B=1, S_in=512, S_out=128).
TABLE1_REFERENCE: Dict[str, Tuple[Tuple[int, int], float]] = {
    "OPT-6.7B": ((1, 4), 5.447),
    "GPT-20B": ((3, 4), 14.373),
    "LLaMA-30B": ((2, 8), 17.540),
}

#: Shapes whose decode terms are evaluated together in one 2-D array; a
#: chunk of 16 shapes x 128 tokens keeps each temporary at 16 KiB.
_SHAPE_CHUNK = 16


@dataclass(frozen=True)
class CostModelParams:
    """Tunable efficiency factors of the analytic model.

    The defaults describe a T4-class GPU running FasterTransformer-style
    kernels; they intentionally stay well below peak to reflect the practical
    under-utilisation factors the paper lists (small batches, single-token
    decoding, memory access overheads).
    """

    #: Fraction of peak FLOPs achieved during the (large-matmul) prefill phase.
    prefill_compute_efficiency: float = 0.35
    #: Fraction of peak FLOPs achieved during batched decoding matmuls.  Kept
    #: deliberately low (skinny GEMMs on fp32 weights are far from peak on a
    #: T4) so that large batches pay a visible per-iteration cost, which is
    #: what makes single-pipeline configurations overload under the paper's
    #: arrival rates (Section 6.2).
    decode_compute_efficiency: float = 0.036
    #: Fraction of peak memory bandwidth achieved when streaming weights.
    memory_efficiency: float = 0.65
    #: Extra per-iteration fixed overhead (kernel launches, sampling), seconds.
    per_iteration_overhead: float = 0.003
    #: Per-request scheduling/tokenisation overhead added once, seconds.
    per_request_overhead: float = 0.05
    #: Efficiency factor applied to collective (all-reduce) bandwidth.
    collective_efficiency: float = 0.7
    #: Startup latency of an all-reduce whose shards share one instance.
    collective_latency_intra: float = 0.0002
    #: Startup latency of an all-reduce that spans instances (this is the
    #: "over-sharded intra-op parallelism" penalty of Section 5).
    collective_latency_inter: float = 0.0012
    #: GPUs per instance; tensor groups larger than this pay inter-instance
    #: all-reduce costs.
    gpus_per_instance: int = 4

    def __post_init__(self) -> None:
        for name in (
            "prefill_compute_efficiency",
            "decode_compute_efficiency",
            "memory_efficiency",
            "collective_efficiency",
        ):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if self.gpus_per_instance < 1:
            raise ValueError("gpus_per_instance must be >= 1")


class LatencyModel:
    """Analytic latency/throughput model for one (model, GPU, network) triple.

    Parameters
    ----------
    model:
        The LLM being served (a :class:`~repro.llm.spec.ModelSpec` or name).
    gpu:
        GPU device type; defaults to the T4 used in the paper.
    network:
        Cluster fabric characteristics (used for all-reduce / pipeline
        hand-off costs).
    params:
        Efficiency factors; see :class:`CostModelParams`.

    A model that appears in Table 1 is calibrated: a scalar correction
    factor is fitted so the reference-point latency matches the published
    number exactly.  Any other model keeps a factor of 1.0.
    """

    def __init__(
        self,
        model: ModelSpec | str,
        gpu: GPUSpec = T4,
        network: Optional[NetworkSpec] = None,
        params: Optional[CostModelParams] = None,
    ) -> None:
        self.model = get_model(model) if isinstance(model, str) else model
        self.gpu = gpu
        self.network = network or NetworkSpec()
        self.params = params or CostModelParams()
        self._calibration = 1.0
        # The model, GPU, network and params are all immutable after
        # construction, so the public entry points are pure functions of
        # their arguments.  Each instance carries its own unbounded memo
        # (the argument space is the small finite configuration space); the
        # class-level methods stay uncached for tests and subclasses.
        for name in self._CACHED_ENTRY_POINTS:
            setattr(self, name, lru_cache(maxsize=None)(getattr(self, name)))
        if self.model.name in TABLE1_REFERENCE:
            (p_ref, m_ref), target = TABLE1_REFERENCE[self.model.name]
            raw = self._uncalibrated_l_exe(
                DEFAULT_OUTPUT_LENGTH,
                DEFAULT_INPUT_LENGTH,
                pipeline_degree=p_ref,
                tensor_degree=m_ref,
                batch_size=1,
            )
            if raw > 0:
                self._calibration = target / raw

    #: Pure entry points wrapped with a per-instance ``lru_cache`` in
    #: ``__init__``.
    _CACHED_ENTRY_POINTS = ("decode_iteration_time", "prefill_time", "l_exe")

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    @property
    def calibration_factor(self) -> float:
        """Multiplier applied to raw analytic latencies (1.0 when uncalibrated)."""
        return self._calibration

    def cache_info(self) -> Dict[str, Tuple[int, int]]:
        """``{entry point: (hits, misses)}`` for the per-instance caches."""
        info: Dict[str, Tuple[int, int]] = {}
        for name in self._CACHED_ENTRY_POINTS:
            cached = getattr(self, name)
            if hasattr(cached, "cache_info"):
                stats = cached.cache_info()
                info[name] = (stats.hits, stats.misses)
        return info

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def _collective_bandwidth(self, tensor_degree: int) -> float:
        """Effective per-GPU bandwidth for all-reduce within a tensor group."""
        if tensor_degree <= self.params.gpus_per_instance:
            raw = self.network.intra_instance_bandwidth
        else:
            raw = self.network.inter_instance_bandwidth
        return raw * self.params.collective_efficiency

    def _allreduce_time(self, payload_bytes: float, tensor_degree: int) -> float:
        """Ring all-reduce time for *payload_bytes* across *tensor_degree* GPUs."""
        if tensor_degree <= 1 or payload_bytes <= 0:
            return 0.0
        bandwidth = self._collective_bandwidth(tensor_degree)
        ring_factor = 2.0 * (tensor_degree - 1) / tensor_degree
        if tensor_degree <= self.params.gpus_per_instance:
            latency = self.params.collective_latency_intra
        else:
            latency = self.params.collective_latency_inter
        return ring_factor * payload_bytes / bandwidth + latency

    def _pipeline_handoff_time(self, payload_bytes: float, pipeline_degree: int) -> float:
        """Cross-stage activation transfer cost for one traversal of the pipeline."""
        if pipeline_degree <= 1 or payload_bytes <= 0:
            return 0.0
        hops = pipeline_degree - 1
        return hops * (
            payload_bytes / self.network.inter_instance_bandwidth
            + self.network.per_transfer_latency
        )

    def _activation_bytes(self, batch_size: int, tokens: int = 1) -> float:
        """Bytes of a hidden-state activation tensor for *tokens* per sequence."""
        return 2.0 * self.model.hidden_size * batch_size * max(tokens, 1)

    # ------------------------------------------------------------------
    # Phase latencies (uncalibrated internals)
    # ------------------------------------------------------------------
    def _decode_shape_terms(
        self, pipeline_degree: int, tensor_degree: int, batch_size: int
    ) -> Tuple[float, float, float, float]:
        """The token-independent terms of one decode iteration of a shape.

        Returns ``(stage share of the layers, memory time per stage,
        all-reduce time per stage, pipeline hand-off time)``; only the
        compute term of an iteration depends on the context length.
        """
        layers_per_stage = self.model.num_layers / pipeline_degree
        # Weight streaming: every resident parameter is read once per token.
        weight_bytes_per_gpu = (
            self.model.num_layers * self.model.layer_param_bytes
            + self.model.embedding_params * self.model.bytes_per_param
        ) / (pipeline_degree * tensor_degree)
        memory_time_per_stage = weight_bytes_per_gpu / (
            self.gpu.memory_bandwidth * self.params.memory_efficiency
        )
        # Two all-reduces per layer (attention output + FFN output).
        allreduce = 2.0 * layers_per_stage * self._allreduce_time(
            self._activation_bytes(batch_size), tensor_degree
        )
        handoff = self._pipeline_handoff_time(
            self._activation_bytes(batch_size), pipeline_degree
        )
        return (
            layers_per_stage / self.model.num_layers,
            memory_time_per_stage,
            allreduce,
            handoff,
        )

    def _decode_iteration_raw(
        self,
        context_length: int,
        pipeline_degree: int,
        tensor_degree: int,
        batch_size: int,
    ) -> float:
        _check_parallelism(pipeline_degree, tensor_degree, batch_size)
        share, memory_time_per_stage, allreduce, handoff = self._decode_shape_terms(
            pipeline_degree, tensor_degree, batch_size
        )
        # Compute lower bound (per stage, per GPU).
        flops_per_stage = (
            batch_size * self.model.flops_per_token(context_length) * share / tensor_degree
        )
        compute_time_per_stage = flops_per_stage / (
            self._decode_peak_flops() * self.params.decode_compute_efficiency
        )
        stage_time = max(memory_time_per_stage, compute_time_per_stage)
        per_stage = stage_time + allreduce
        return pipeline_degree * per_stage + handoff + self.params.per_iteration_overhead

    def _prefill_raw(
        self,
        input_length: int,
        pipeline_degree: int,
        tensor_degree: int,
        batch_size: int,
    ) -> float:
        _check_parallelism(pipeline_degree, tensor_degree, batch_size)
        if input_length <= 0:
            return 0.0
        total_flops = (
            batch_size
            * 2.0
            * self.model.total_params
            * input_length
        )
        peak = self._decode_peak_flops()
        compute_time = total_flops / (
            pipeline_degree
            * tensor_degree
            * peak
            * self.params.prefill_compute_efficiency
        )
        layers = self.model.num_layers
        allreduce = 2.0 * layers * self._allreduce_time(
            self._activation_bytes(batch_size, input_length), tensor_degree
        )
        handoff = self._pipeline_handoff_time(
            self._activation_bytes(batch_size, input_length), pipeline_degree
        )
        return compute_time + allreduce + handoff

    def _decode_peak_flops(self) -> float:
        """Peak FLOPs relevant for matmuls at serving precision."""
        if self.model.bytes_per_param <= 2:
            return self.gpu.fp16_flops
        return self.gpu.fp32_flops

    def _uncalibrated_l_exe(
        self,
        output_length: int,
        input_length: int,
        pipeline_degree: int,
        tensor_degree: int,
        batch_size: int,
    ) -> float:
        shape = (pipeline_degree, tensor_degree, batch_size)
        return float(self._uncalibrated_l_exe_many(output_length, input_length, [shape])[0])

    def _uncalibrated_l_exe_many(
        self,
        output_length: int,
        input_length: int,
        shapes: Sequence[Tuple[int, int, int]],
    ) -> np.ndarray:
        """Uncalibrated ``l_exe`` of every ``(P, M, B)`` shape, in one pass.

        Only the compute term of a decode iteration depends on the token
        index, so the ``output_length`` decode terms of a chunk of shapes
        form one (shapes x tokens) array.  Each row is summed left to right
        with ``np.add.accumulate`` -- the order of a per-token loop, where
        ``np.sum`` would sum pairwise -- so every latency equals the scalar
        loop's bit for bit (``tests/oracles/costmodel.py`` pins that).
        """
        # ``_prefill_raw`` rejects non-positive degrees and batch sizes.
        prefill = np.array(
            [self._prefill_raw(input_length, p, m, b) for p, m, b in shapes], dtype=float
        )
        decode = np.zeros(len(shapes))
        if output_length > 0 and len(shapes):
            flops = np.array(
                [
                    self.model.flops_per_token(input_length + i)
                    for i in range(1, output_length + 1)
                ]
            )
            peak = self._decode_peak_flops() * self.params.decode_compute_efficiency
            overhead = self.params.per_iteration_overhead
            degrees = np.array(shapes, dtype=np.int64).reshape(-1, 3, 1)
            terms = np.array(
                [self._decode_shape_terms(p, m, b) for p, m, b in shapes]
            ).reshape(-1, 4, 1)
            for start in range(0, len(shapes), _SHAPE_CHUNK):
                chunk = slice(start, start + _SHAPE_CHUNK)
                pipeline, tensor, batch = degrees[chunk].transpose(1, 0, 2)
                share, memory_time, allreduce, handoff = terms[chunk].transpose(1, 0, 2)
                compute_time = batch * flops * share / tensor / peak
                per_stage = np.maximum(memory_time, compute_time) + allreduce
                per_token = pipeline * per_stage + handoff + overhead
                decode[chunk] = np.add.accumulate(per_token, axis=1)[:, -1]
        return prefill + decode + self.params.per_request_overhead

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def decode_iteration_time(
        self,
        pipeline_degree: int,
        tensor_degree: int,
        batch_size: int,
        context_length: int = DEFAULT_INPUT_LENGTH,
    ) -> float:
        """Latency of one incremental decoding iteration, ``t_exe(1)`` in Eq. (2)."""
        return self._calibration * self._decode_iteration_raw(
            context_length, pipeline_degree, tensor_degree, batch_size
        )

    def prefill_time(
        self,
        pipeline_degree: int,
        tensor_degree: int,
        batch_size: int,
        input_length: int = DEFAULT_INPUT_LENGTH,
    ) -> float:
        """Latency of the initial phase over the prompt, ``t_exe(S_in)`` in Eq. (1)."""
        return self._calibration * self._prefill_raw(
            input_length, pipeline_degree, tensor_degree, batch_size
        )

    def l_exe(
        self,
        pipeline_degree: int,
        tensor_degree: int,
        batch_size: int,
        input_length: int = DEFAULT_INPUT_LENGTH,
        output_length: int = DEFAULT_OUTPUT_LENGTH,
    ) -> float:
        """End-to-end execution latency ``l_exe(S_out | S_in)`` of Eq. (1)."""
        return self._calibration * self._uncalibrated_l_exe(
            output_length, input_length, pipeline_degree, tensor_degree, batch_size
        )

    def l_exe_many(
        self,
        shapes: Sequence[Tuple[int, int, int]],
        input_length: int = DEFAULT_INPUT_LENGTH,
        output_length: int = DEFAULT_OUTPUT_LENGTH,
    ) -> np.ndarray:
        """:meth:`l_exe` of every ``(P, M, B)`` shape in *shapes*, as one array.

        Element ``i`` equals ``l_exe(*shapes[i], input_length,
        output_length)`` bit for bit; the per-instance cache is not
        consulted.
        """
        return self._calibration * self._uncalibrated_l_exe_many(
            output_length, input_length, shapes
        )


def _check_parallelism(pipeline_degree: int, tensor_degree: int, batch_size: int) -> None:
    if pipeline_degree <= 0 or tensor_degree <= 0:
        raise ValueError("parallel degrees must be positive")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
