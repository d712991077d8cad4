"""References for the device mapper (Section 3.3).

:func:`reuse_weight` is the edge weight of one (device, position) pair:
the bytes of model context, and of cache context when the position's
pipeline inherits the old one's requests, that the device could keep by
moving there.  Every cell of the production mapper's weight matrix must
equal it bitwise.  :func:`model_context_overlap_bytes` and
:func:`cache_context_overlap_bytes` price one context each, from the
layer-range and shard-interval overlap of its old and new positions.

:class:`ReferenceDeviceMapper` is the scalar reference: every edge weight
is one :func:`reuse_weight` call and every matching goes through
:class:`~oracles.bipartite.BipartiteGraph`: no weight matrix, no
sparsification, no component decomposition and no memoised solves.  The
production mapper's hierarchical placement must equal this one down to
dict order, and its flat matching must reuse the same number of bytes.

:class:`TwoSolveDeviceMapper` is the adoption rule the reuse-bound skip
replaced: the production matchers, both solved in every round (the
greedy ablation has only the flat one).  The production mapper must adopt
its placement down to dict order, with bit-equal ``reused_bytes``.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import ParallelConfig
from repro.core.device_mapper import DeviceMapper, DeviceMapping
from repro.engine.context import DeviceId, MetaContextManager
from repro.engine.placement import (
    TopologyPosition,
    mesh_positions,
    shard_interval,
    stage_layer_range,
)
from repro.llm.spec import ModelSpec

from .bipartite import BipartiteGraph

Placement = Dict[DeviceId, TopologyPosition]


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


def reuse_weight(
    model: ModelSpec,
    meta_context: MetaContextManager,
    device_id: DeviceId,
    position: TopologyPosition,
    new_config: ParallelConfig,
    pipeline_inheritance: Optional[Dict[int, int]] = None,
) -> float:
    """Bytes of context device *device_id* could reuse at *position*."""
    daemon = meta_context.daemon(device_id)
    weight = 0.0
    model_ctx = daemon.model_context
    if model_ctx is not None:
        weight += model_context_overlap_bytes(
            model,
            model_ctx.pipeline_degree,
            model_ctx.tensor_degree,
            model_ctx.position,
            new_config.pipeline_degree,
            new_config.tensor_degree,
            position,
        )
    cache_ctx = daemon.cache_context
    if cache_ctx is not None:
        inherits = True
        if pipeline_inheritance is not None:
            inherits = (
                pipeline_inheritance.get(cache_ctx.position.data_index) == position.data_index
            )
        weight += cache_context_overlap_bytes(
            model,
            cache_ctx.cached_tokens,
            cache_ctx.batch_size,
            cache_ctx.pipeline_degree,
            cache_ctx.tensor_degree,
            cache_ctx.position,
            new_config.pipeline_degree,
            new_config.tensor_degree,
            position,
            inherits_requests=inherits,
        )
    return weight


class TwoSolveDeviceMapper(DeviceMapper):
    """:class:`DeviceMapper` that solves the flat and hierarchical matchings every round."""

    def map_devices(
        self,
        meta_context: MetaContextManager,
        devices: Sequence[DeviceId],
        new_config: ParallelConfig,
        pipeline_inheritance: Optional[Dict[int, int]] = None,
        cached_tokens_per_pipeline: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> DeviceMapping:
        """The flat matching, replaced by the hierarchical one when it reuses at least as much."""
        positions = mesh_positions(
            new_config.data_degree, new_config.pipeline_degree, new_config.tensor_degree
        )
        if len(devices) < len(positions):
            raise ValueError(f"configuration {new_config} needs {len(positions)} GPUs")
        lookup = self._weight_lookup(
            meta_context, devices, positions, new_config, pipeline_inheritance
        )
        flat = self._flat_matching(lookup, devices, positions)
        placement = flat
        if self.use_optimal_matching and self.gpus_per_instance > 1:
            hierarchical = self._hierarchical_matching(lookup, devices, positions)
            if self._placement_reuse(lookup, hierarchical) >= self._placement_reuse(
                lookup, flat
            ):
                placement = hierarchical
        return DeviceMapping(
            config=new_config,
            placement=placement,
            reused_bytes=self._placement_reuse(lookup, placement),
            required_bytes=self._required_bytes(new_config, cached_tokens_per_pipeline),
        )


class ReferenceDeviceMapper(DeviceMapper):
    """:class:`DeviceMapper` whose ``map_devices`` runs the scalar matchers."""

    def map_devices(
        self,
        meta_context: MetaContextManager,
        devices: Sequence[DeviceId],
        new_config: ParallelConfig,
        pipeline_inheritance: Optional[Dict[int, int]] = None,
        cached_tokens_per_pipeline: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> DeviceMapping:
        """Flat and hierarchical scalar matchings; the larger reuse wins."""
        positions = mesh_positions(
            new_config.data_degree, new_config.pipeline_degree, new_config.tensor_degree
        )
        if len(devices) < len(positions):
            raise ValueError(f"configuration {new_config} needs {len(positions)} GPUs")
        args = (meta_context, devices, positions, new_config, pipeline_inheritance)
        flat = self.flat_matching(*args)
        placement = flat
        if self.use_optimal_matching and self.gpus_per_instance > 1:
            hierarchical = self.hierarchical_matching(*args)
            if self.placement_reuse(
                meta_context, hierarchical, new_config, pipeline_inheritance
            ) >= self.placement_reuse(meta_context, flat, new_config, pipeline_inheritance):
                placement = hierarchical
        return DeviceMapping(
            config=new_config,
            placement=placement,
            reused_bytes=float(
                self.placement_reuse(meta_context, placement, new_config, pipeline_inheritance)
            ),
            required_bytes=self._required_bytes(new_config, cached_tokens_per_pipeline),
        )

    def placement_reuse(
        self,
        meta_context: MetaContextManager,
        placement: Placement,
        new_config: ParallelConfig,
        pipeline_inheritance: Optional[Dict[int, int]],
    ) -> float:
        """Reusable bytes of *placement*, summed in placement order."""
        return sum(
            reuse_weight(
                self.model, meta_context, device_id, position, new_config, pipeline_inheritance
            )
            for device_id, position in placement.items()
        )

    def build_graph(
        self,
        meta_context: MetaContextManager,
        devices: Sequence[DeviceId],
        new_config: ParallelConfig,
        pipeline_inheritance: Optional[Dict[int, int]] = None,
    ) -> BipartiteGraph:
        """Complete weighted bipartite graph between *devices* and positions."""
        graph: BipartiteGraph = BipartiteGraph()
        positions = mesh_positions(
            new_config.data_degree, new_config.pipeline_degree, new_config.tensor_degree
        )
        for device_id in devices:
            graph.add_left(device_id)
        for position in positions:
            graph.add_right(position)
        for device_id in devices:
            for position in positions:
                weight = reuse_weight(
                    self.model, meta_context, device_id, position, new_config, pipeline_inheritance
                )
                if weight > 0:
                    graph.set_weight(device_id, position, weight)
        return graph

    def flat_matching(
        self,
        meta_context: MetaContextManager,
        devices: Sequence[DeviceId],
        positions: Sequence[TopologyPosition],
        new_config: ParallelConfig,
        pipeline_inheritance: Optional[Dict[int, int]],
    ) -> Placement:
        """One global Kuhn-Munkres (or greedy) solve over the whole graph."""
        graph = self.build_graph(meta_context, devices, new_config, pipeline_inheritance)
        if self.use_optimal_matching:
            placement = graph.maximum_weight_matching()
        else:
            placement = graph.greedy_matching()
        self._fill_unassigned(placement, devices, positions)
        return placement

    def hierarchical_matching(
        self,
        meta_context: MetaContextManager,
        devices: Sequence[DeviceId],
        positions: Sequence[TopologyPosition],
        new_config: ParallelConfig,
        pipeline_inheritance: Optional[Dict[int, int]],
    ) -> Placement:
        """Instances to position groups, then each instance's GPUs within."""
        ordered = list(positions)
        groups: List[List[TopologyPosition]] = [
            ordered[i : i + self.gpus_per_instance]
            for i in range(0, len(ordered), self.gpus_per_instance)
        ]
        per_instance: Dict[str, List[DeviceId]] = {}
        for device_id in devices:
            per_instance.setdefault(device_id[0], []).append(device_id)
        group_graph: BipartiteGraph = BipartiteGraph()
        for instance_id in sorted(per_instance):
            group_graph.add_left(instance_id)
        for group_index in range(len(groups)):
            group_graph.add_right(group_index)
        best_inner: Dict[Tuple[str, int], Placement] = {}
        for instance_id in group_graph.left_nodes:
            for group_index, group in enumerate(groups):
                inner, weight = self.match_within(
                    meta_context,
                    per_instance[instance_id],
                    group,
                    new_config,
                    pipeline_inheritance,
                )
                best_inner[(instance_id, group_index)] = inner
                if weight > 0:
                    group_graph.set_weight(instance_id, group_index, weight)
        placement: Placement = {}
        for instance_id, group_index in group_graph.maximum_weight_matching().items():
            placement.update(best_inner[(instance_id, group_index)])
        self._fill_unassigned(placement, devices, positions)
        return placement

    def match_within(
        self,
        meta_context: MetaContextManager,
        instance_devices: Sequence[DeviceId],
        group: Sequence[TopologyPosition],
        new_config: ParallelConfig,
        pipeline_inheritance: Optional[Dict[int, int]],
    ) -> Tuple[Placement, float]:
        """Match one instance's GPUs onto one position group, with its weight."""
        graph: BipartiteGraph = BipartiteGraph()
        for device_id in instance_devices:
            graph.add_left(device_id)
        for position in group:
            graph.add_right(position)
        for device_id in instance_devices:
            for position in group:
                weight = reuse_weight(
                    self.model, meta_context, device_id, position, new_config, pipeline_inheritance
                )
                if weight > 0:
                    graph.set_weight(device_id, position, weight)
        matching = graph.maximum_weight_matching()
        result = dict(matching)
        # Fill unmatched positions of the group with the instance's leftover
        # GPUs (zero-weight pairs, so the matched weight is unchanged).
        assigned = set(result.values())
        free_devices = [d for d in instance_devices if d not in result]
        free_positions = [p for p in group if p not in assigned]
        for device_id, position in zip(free_devices, free_positions):
            result[device_id] = position
        return result, graph.matching_weight(matching)
