"""Simulated distributed inference engine: placement, contexts, batching, pipelines."""

from .batching import Batch, RequestQueue
from .context import (
    CacheContext,
    ContextDaemon,
    DeviceId,
    MetaContextManager,
    ModelContext,
)
from .pipeline import InferencePipeline, PipelineAssignment
from .placement import (
    TopologyPosition,
    mesh_positions,
    position_cache_bytes,
    position_model_bytes,
    shard_interval,
    stage_layer_range,
)

__all__ = [
    "Batch",
    "CacheContext",
    "ContextDaemon",
    "DeviceId",
    "InferencePipeline",
    "MetaContextManager",
    "ModelContext",
    "PipelineAssignment",
    "RequestQueue",
    "TopologyPosition",
    "mesh_positions",
    "position_cache_bytes",
    "position_model_bytes",
    "shard_interval",
    "stage_layer_range",
]
