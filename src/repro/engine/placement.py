"""Device-mesh placement math: positions, shards and context overlap.

A parallel configuration ``(D, P, M)`` defines a logical device mesh.  Every
GPU is bound to a *pipeline-stage-shard* topology position ``(d, p, m)``: the
``m``-th tensor shard of the ``p``-th pipeline stage in the ``d``-th data
parallel pipeline (Section 3.3).  A position determines exactly which slice
of the model a GPU holds:

* the stage ``p`` owns a contiguous range of transformer layers, and
* the shard ``m`` owns a ``1/M`` interval of every owned layer's parameters
  (and of the KV cache of those layers).

The bytes of model context and cache context a GPU could *reuse* by moving
from an old position to a new one are the overlap of the two positions'
layer ranges times the overlap of their shard intervals, the geometry this
module defines; the device mapper's weight matrix evaluates that product
for a whole mesh at once.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil
from typing import NamedTuple, Tuple

from ..llm.spec import ModelSpec


class _Coordinates(NamedTuple):
    """The fields of :class:`TopologyPosition`, which adds the range check.

    A ``NamedTuple`` class body cannot override ``__new__``, so the check
    lives on a subclass.
    """

    data_index: int
    stage_index: int
    shard_index: int


class TopologyPosition(_Coordinates):
    """A pipeline-stage-shard coordinate ``(d, p, m)`` (all zero-based).

    The mapper and the planner key, hash and compare positions on every
    round, so a position is a named tuple: immutable, with its hash
    (``hash((d, p, m))``), equality and ordering done in C.  Like any
    tuple it also equals, and unpacks as, a plain ``(d, p, m)``.
    """

    __slots__ = ()

    def __new__(cls, data_index: int, stage_index: int, shard_index: int) -> "TopologyPosition":
        if min(data_index, stage_index, shard_index) < 0:
            raise ValueError("topology coordinates must be non-negative")
        return tuple.__new__(cls, (data_index, stage_index, shard_index))

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"(d={self.data_index}, p={self.stage_index}, m={self.shard_index})"


@lru_cache(maxsize=4096)
def mesh_positions(
    data_degree: int, pipeline_degree: int, tensor_degree: int
) -> Tuple[TopologyPosition, ...]:
    """Every topology position of a ``(D, P, M)`` mesh, in deterministic order.

    Pure and memoised: each shape's positions are built once and shared as
    one immutable tuple.
    """
    if min(data_degree, pipeline_degree, tensor_degree) <= 0:
        raise ValueError("parallel degrees must be positive")
    return tuple(
        TopologyPosition(d, p, m)
        for d in range(data_degree)
        for p in range(pipeline_degree)
        for m in range(tensor_degree)
    )


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
