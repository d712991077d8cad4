"""Context daemons: per-GPU model context and cache context.

SpotServe runs a *context daemon* next to every inference engine (Figure 3).
The daemon owns two kinds of GPU state:

* **model context** -- the slice of model parameters the GPU holds for its
  topology position, and
* **cache context** -- the KV cache of the in-flight requests served by the
  GPU's pipeline.

Because the daemon is a separate process from the inference engine, the
context survives engine interruptions; reparallelization then migrates only
the missing pieces.  In this reproduction the daemon tracks *which* slices
are resident and the cached batch's geometry (not actual tensors), which is
exactly the information the device mapper and migration planner consume.

An :class:`~repro.engine.pipeline.InferencePipeline` holds the daemons of
its GPUs from the moment it is built, and a completed batch sets their
``cache_context`` to ``None`` directly.  A held daemon stays the
:class:`MetaContextManager`'s daemon for its device because
:meth:`MetaContextManager.drop_instance` is only called for instances no
live pipeline uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, ItemsView, Optional, Tuple

from .placement import TopologyPosition

DeviceId = Tuple[str, int]  # (instance_id, gpu_index)


@dataclass
class ModelContext:
    """The model-parameter slice a GPU holds."""

    pipeline_degree: int
    tensor_degree: int
    position: TopologyPosition


@dataclass
class CacheContext:
    """The KV-cache slice a GPU holds for one pipeline's in-flight batch."""

    pipeline_degree: int
    tensor_degree: int
    position: TopologyPosition
    batch_size: int
    cached_tokens: int
    batch_id: Optional[int] = None


@dataclass
class ContextDaemon:
    """Per-GPU context holder; the meta-context keys it by its device."""

    model_context: Optional[ModelContext] = None
    cache_context: Optional[CacheContext] = None

    def install_model_context(
        self, pipeline_degree: int, tensor_degree: int, position: TopologyPosition
    ) -> None:
        """Record that the GPU now holds the slice for *position*."""
        self.model_context = ModelContext(pipeline_degree, tensor_degree, position)

    def install_cache_context(
        self,
        pipeline_degree: int,
        tensor_degree: int,
        position: TopologyPosition,
        batch_size: int,
        cached_tokens: int,
        batch_id: Optional[int] = None,
    ) -> None:
        """Record the KV cache of the pipeline's current batch."""
        self.cache_context = CacheContext(
            pipeline_degree,
            tensor_degree,
            position,
            batch_size,
            cached_tokens,
            batch_id,
        )


class MetaContextManager:
    """Cluster-wide view of every GPU's context daemon.

    This mirrors the meta-context manager on SpotServe's inference server: it
    knows what every GPU currently holds and is the source of truth the
    device mapper and migration planner read when a reconfiguration starts.
    """

    def __init__(self) -> None:
        self._daemons: Dict[DeviceId, ContextDaemon] = {}

    # ------------------------------------------------------------------
    # Daemon lifecycle
    # ------------------------------------------------------------------
    def daemon(self, device_id: DeviceId) -> ContextDaemon:
        """Return (creating if needed) the daemon for *device_id*."""
        if device_id not in self._daemons:
            self._daemons[device_id] = ContextDaemon()
        return self._daemons[device_id]

    def drop_instance(self, instance_id: str) -> None:
        """Forget every GPU of an instance."""
        for device_id in list(self._daemons):
            if device_id[0] == instance_id:
                del self._daemons[device_id]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def daemons(self) -> ItemsView[DeviceId, ContextDaemon]:
        """Every tracked GPU with its daemon, as a live ``(device, daemon)`` view."""
        return self._daemons.items()
