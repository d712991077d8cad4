"""Device-mesh placement math: positions, shards and context overlap.

A parallel configuration ``(D, P, M)`` defines a logical device mesh.  Every
GPU is bound to a *pipeline-stage-shard* topology position ``(d, p, m)``: the
``m``-th tensor shard of the ``p``-th pipeline stage in the ``d``-th data
parallel pipeline (Section 3.3).  A position determines exactly which slice
of the model a GPU holds:

* the stage ``p`` owns a contiguous range of transformer layers, and
* the shard ``m`` owns a ``1/M`` interval of every owned layer's parameters
  (and of the KV cache of those layers).

The device mapper needs to know, for any (old position, new position) pair,
how many bytes of model context and cache context could be *reused* if the
same physical GPU moved from the old position to the new one.  That overlap
is a pure function of the two configurations and the model geometry, which
is what this module computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import List, Tuple

from ..llm.spec import ModelSpec


@dataclass(frozen=True, order=True)
class TopologyPosition:
    """A pipeline-stage-shard coordinate ``(d, p, m)`` (all zero-based)."""

    data_index: int
    stage_index: int
    shard_index: int

    def __post_init__(self) -> None:
        if min(self.data_index, self.stage_index, self.shard_index) < 0:
            raise ValueError("topology coordinates must be non-negative")

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"(d={self.data_index}, p={self.stage_index}, m={self.shard_index})"


def mesh_positions(data_degree: int, pipeline_degree: int, tensor_degree: int) -> List[TopologyPosition]:
    """Every topology position of a ``(D, P, M)`` mesh, in deterministic order."""
    if min(data_degree, pipeline_degree, tensor_degree) <= 0:
        raise ValueError("parallel degrees must be positive")
    return [
        TopologyPosition(d, p, m)
        for d in range(data_degree)
        for p in range(pipeline_degree)
        for m in range(tensor_degree)
    ]


def stage_layer_range(
    num_layers: int, pipeline_degree: int, stage_index: int
) -> Tuple[float, float]:
    """Half-open layer interval ``[start, end)`` owned by a pipeline stage.

    Uses fractional boundaries so models whose layer count is not divisible
    by ``P`` are still partitioned exactly (the real system balances whole
    layers; the fractional view only changes overlap byte counts by less than
    one layer).
    """
    if pipeline_degree <= 0:
        raise ValueError("pipeline_degree must be positive")
    if not 0 <= stage_index < pipeline_degree:
        raise ValueError("stage_index out of range")
    layers_per_stage = num_layers / pipeline_degree
    return stage_index * layers_per_stage, (stage_index + 1) * layers_per_stage


@lru_cache(maxsize=4096)
def shard_interval(tensor_degree: int, shard_index: int) -> Tuple[float, float]:
    """Fraction ``[start, end)`` of each layer's parameters owned by a shard.

    Pure and memoised.
    """
    if tensor_degree <= 0:
        raise ValueError("tensor_degree must be positive")
    if not 0 <= shard_index < tensor_degree:
        raise ValueError("shard_index out of range")
    width = 1.0 / tensor_degree
    return shard_index * width, (shard_index + 1) * width


@lru_cache(maxsize=4096)
def stage_layers(
    num_layers: int, pipeline_degree: int, stage_index: int
) -> Tuple[int, ...]:
    """Whole layers owned by a pipeline stage, as an integer tuple.

    Equivalent to scanning ``range(num_layers)`` for ``start <= l < end``
    over the fractional :func:`stage_layer_range` boundaries, but built in
    O(layers-per-stage) from the half-open integer range
    ``[ceil(start), ceil(end))``: for an integer ``l``, ``l >= start`` iff
    ``l >= ceil(start)`` and ``l < end`` iff ``l < ceil(end)`` (``ceil`` on a
    float is exact).  The upper bound is clamped to ``num_layers`` because
    ``(stage_index + 1) * (num_layers / P)`` can exceed ``num_layers`` by an
    ulp when the division is inexact.
    """
    start, end = stage_layer_range(num_layers, pipeline_degree, stage_index)
    return tuple(range(min(ceil(start), num_layers), min(ceil(end), num_layers)))


def _interval_overlap(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def model_context_overlap_bytes(
    model: ModelSpec,
    old_pipeline_degree: int,
    old_tensor_degree: int,
    old_position: TopologyPosition,
    new_pipeline_degree: int,
    new_tensor_degree: int,
    new_position: TopologyPosition,
) -> float:
    """Reusable model-context bytes if a GPU moves between two positions.

    The overlap is the product of the overlapping layer span and the
    overlapping shard interval, independent of the data-parallel index
    (every pipeline replica holds identical parameters).
    """
    old_layers = stage_layer_range(model.num_layers, old_pipeline_degree, old_position.stage_index)
    new_layers = stage_layer_range(model.num_layers, new_pipeline_degree, new_position.stage_index)
    layer_overlap = _interval_overlap(old_layers, new_layers)
    if layer_overlap <= 0:
        return 0.0
    old_shard = shard_interval(old_tensor_degree, old_position.shard_index)
    new_shard = shard_interval(new_tensor_degree, new_position.shard_index)
    fraction_overlap = _interval_overlap(old_shard, new_shard)
    if fraction_overlap <= 0:
        return 0.0
    return layer_overlap * model.layer_param_bytes * fraction_overlap


def cache_context_overlap_bytes(
    model: ModelSpec,
    cached_tokens: int,
    batch_size: int,
    old_pipeline_degree: int,
    old_tensor_degree: int,
    old_position: TopologyPosition,
    new_pipeline_degree: int,
    new_tensor_degree: int,
    new_position: TopologyPosition,
    inherits_requests: bool = True,
) -> float:
    """Reusable KV-cache bytes between two positions.

    Cache context is only reusable when the new pipeline actually inherits
    the in-flight requests whose cache the old position holds
    (``inherits_requests``); the paper's Figure 4b uses this to prefer
    matching ``u1`` with ``v0`` over ``v3``.
    """
    if cached_tokens <= 0 or batch_size <= 0 or not inherits_requests:
        return 0.0
    old_layers = stage_layer_range(model.num_layers, old_pipeline_degree, old_position.stage_index)
    new_layers = stage_layer_range(model.num_layers, new_pipeline_degree, new_position.stage_index)
    layer_overlap = _interval_overlap(old_layers, new_layers)
    if layer_overlap <= 0:
        return 0.0
    old_shard = shard_interval(old_tensor_degree, old_position.shard_index)
    new_shard = shard_interval(new_tensor_degree, new_position.shard_index)
    fraction_overlap = _interval_overlap(old_shard, new_shard)
    if fraction_overlap <= 0:
        return 0.0
    per_layer_cache = (
        2.0 * model.hidden_size * model.bytes_per_cache_element * batch_size * cached_tokens
    )
    return layer_overlap * per_layer_cache * fraction_overlap


def position_model_bytes(
    model: ModelSpec, pipeline_degree: int, tensor_degree: int
) -> float:
    """Model-context bytes held by any single position of a ``(P, M)`` mesh."""
    layers_per_stage = model.num_layers / pipeline_degree
    return layers_per_stage * model.layer_param_bytes / tensor_degree


def position_cache_bytes(
    model: ModelSpec,
    cached_tokens: int,
    batch_size: int,
    pipeline_degree: int,
    tensor_degree: int,
) -> float:
    """Cache-context bytes held by one position for a batch's committed tokens."""
    if cached_tokens <= 0 or batch_size <= 0:
        return 0.0
    total = model.kv_cache_bytes(cached_tokens, batch_size)
    return total / (pipeline_degree * tensor_degree)
