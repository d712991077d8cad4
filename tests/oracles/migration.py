"""Scalar reference for the migration planner (Algorithm 2).

Every step is built by a per-device scan of the meta-context, sources are
ranked with a plain ``sorted`` and deferred layers are drained by repeated
first-strict-minimum picks; nothing is memoised.  The production planner's
signature-grouped steps, partition ranking, numpy drain and plan memo must
reproduce these plans byte for byte, ``Transfer`` order included.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.device_mapper import DeviceMapping
from repro.core.migration import MigrationPlan, MigrationPlanner, MigrationStep
from repro.engine.context import DeviceId, MetaContextManager
from repro.engine.placement import shard_interval, stage_layers
from repro.sim.network import Transfer

Holders = Dict[int, List[Tuple[Tuple[float, float], DeviceId]]]


class ReferenceMigrationPlanner(MigrationPlanner):
    """:class:`MigrationPlanner` whose steps and drain are built the scalar way."""

    def plan(
        self,
        meta_context: MetaContextManager,
        mapping: DeviceMapping,
        cache_requirements: Optional[Dict[int, Tuple[int, int, int]]] = None,
    ) -> MigrationPlan:
        """Build the plan from scratch on every call (no memo)."""
        return self._build_plan(meta_context, mapping, cache_requirements or {})

    def _build_plan(
        self,
        meta_context: MetaContextManager,
        mapping: DeviceMapping,
        cache_requirements: Dict[int, Tuple[int, int, int]],
    ) -> MigrationPlan:
        layer_steps = self._plan_layer_steps(meta_context, mapping)
        cache_step = self._plan_cache_step(meta_context, mapping, cache_requirements)
        return self._assemble(layer_steps, cache_step, mapping)

    # ------------------------------------------------------------------
    # Step construction
    # ------------------------------------------------------------------
    def _plan_layer_steps(
        self, meta_context: MetaContextManager, mapping: DeviceMapping
    ) -> Dict[int, MigrationStep]:
        config = mapping.config
        steps: Dict[int, MigrationStep] = {
            layer: MigrationStep(kind="weight", layer_index=layer)
            for layer in range(self.model.num_layers)
        }
        holders = self._model_holders(meta_context)
        for device_id, position in mapping.placement.items():
            new_layers = self._stage_layers(position.stage_index, config.pipeline_degree)
            new_interval = shard_interval(config.tensor_degree, position.shard_index)
            own = self._own_model_interval(meta_context, device_id)
            for layer in new_layers:
                missing = self._subtract_interval(
                    new_interval, own.get(layer) if own else None
                )
                for interval in missing:
                    pieces = self._source_pieces(layer, interval, holders, device_id)
                    for source, fraction in pieces:
                        size = fraction * self.model.layer_param_bytes
                        if size <= 0:
                            continue
                        if source is None:
                            steps[layer].storage_bytes += size
                        else:
                            steps[layer].transfers.append(
                                Transfer(
                                    src=source,
                                    dst=device_id,
                                    size_bytes=size,
                                    tag=f"model:layer{layer}",
                                )
                            )
        return steps

    def _plan_cache_step(
        self,
        meta_context: MetaContextManager,
        mapping: DeviceMapping,
        cache_requirements: Dict[int, Tuple[int, int, int]],
    ) -> MigrationStep:
        config = mapping.config
        step = MigrationStep(kind="cache", layer_index=None)
        if not cache_requirements:
            return step
        cache_holders = self._cache_holders(meta_context)
        for new_data_index, (old_data_index, batch_size, cached_tokens) in cache_requirements.items():
            if cached_tokens <= 0:
                continue
            per_layer_bytes = (
                2.0
                * self.model.hidden_size
                * self.model.bytes_per_cache_element
                * batch_size
                * cached_tokens
            )
            for device_id, position in mapping.placement.items():
                if position.data_index != new_data_index:
                    continue
                new_layers = self._stage_layers(position.stage_index, config.pipeline_degree)
                new_interval = shard_interval(config.tensor_degree, position.shard_index)
                own = self._own_cache_interval(meta_context, device_id, old_data_index)
                for layer in new_layers:
                    missing = self._subtract_interval(
                        new_interval, own.get(layer) if own else None
                    )
                    for interval in missing:
                        pieces = self._source_pieces(
                            layer, interval, cache_holders.get(old_data_index, {}), device_id
                        )
                        for source, fraction in pieces:
                            size = fraction * per_layer_bytes
                            if size <= 0 or source is None:
                                # Lost cache is recomputed, not reloaded.
                                continue
                            step.transfers.append(
                                Transfer(
                                    src=source,
                                    dst=device_id,
                                    size_bytes=size,
                                    tag=f"cache:pipeline{new_data_index}",
                                )
                            )
        return step

    # ------------------------------------------------------------------
    # Layer ordering
    # ------------------------------------------------------------------
    def _drain_deferred(
        self,
        usage: Dict[str, float],
        deferred: List[int],
        deltas_by_layer: Dict[int, Dict[str, float]],
    ) -> List[int]:
        """Repeated first-strict-minimum greedy picks over the deferred layers."""
        order: List[int] = []
        while deferred:
            best_pos = 0
            best_peak = float("inf")
            for pos, layer in enumerate(deferred):
                peak = self._peak_after(usage, deltas_by_layer[layer])
                if peak < best_peak:
                    best_peak = peak
                    best_pos = pos
            best_layer = deferred.pop(best_pos)
            self._apply_deltas(usage, deltas_by_layer[best_layer])
            order.append(best_layer)
        return order

    @staticmethod
    def _peak_after(usage: Dict[str, float], deltas: Dict[str, float]) -> float:
        combined = dict(usage)
        for instance, delta in deltas.items():
            combined[instance] = max(combined.get(instance, 0.0) + delta, 0.0)
        return max(combined.values(), default=0.0)

    # ------------------------------------------------------------------
    # Per-device context scans
    # ------------------------------------------------------------------
    def _stage_layers(self, stage_index: int, pipeline_degree: int) -> List[int]:
        return list(stage_layers(self.model.num_layers, pipeline_degree, stage_index))

    def _own_model_interval(
        self, meta_context: MetaContextManager, device_id: DeviceId
    ) -> Dict[int, Tuple[float, float]]:
        """Layer -> shard interval the device already holds (model context)."""
        ctx = meta_context.daemon(device_id).model_context
        if ctx is None:
            return {}
        layers = self._stage_layers(ctx.position.stage_index, ctx.pipeline_degree)
        interval = shard_interval(ctx.tensor_degree, ctx.position.shard_index)
        return {layer: interval for layer in layers}

    def _own_cache_interval(
        self, meta_context: MetaContextManager, device_id: DeviceId, old_data_index: int
    ) -> Dict[int, Tuple[float, float]]:
        ctx = meta_context.daemon(device_id).cache_context
        if ctx is None or ctx.position.data_index != old_data_index:
            return {}
        layers = self._stage_layers(ctx.position.stage_index, ctx.pipeline_degree)
        interval = shard_interval(ctx.tensor_degree, ctx.position.shard_index)
        return {layer: interval for layer in layers}

    def _model_holders(self, meta_context: MetaContextManager) -> Holders:
        """Layer -> list of (shard interval, device) currently holding it."""
        holders: Holders = {}
        for device_id, daemon in meta_context.daemons():
            ctx = daemon.model_context
            if ctx is None:
                continue
            layers = self._stage_layers(ctx.position.stage_index, ctx.pipeline_degree)
            interval = shard_interval(ctx.tensor_degree, ctx.position.shard_index)
            for layer in layers:
                holders.setdefault(layer, []).append((interval, device_id))
        return holders

    def _cache_holders(self, meta_context: MetaContextManager) -> Dict[int, Holders]:
        """Old data index -> layer -> holders of that pipeline's cache."""
        holders: Dict[int, Holders] = {}
        for device_id, daemon in meta_context.daemons():
            ctx = daemon.cache_context
            if ctx is None:
                continue
            layers = self._stage_layers(ctx.position.stage_index, ctx.pipeline_degree)
            interval = shard_interval(ctx.tensor_degree, ctx.position.shard_index)
            per_pipeline = holders.setdefault(ctx.position.data_index, {})
            for layer in layers:
                per_pipeline.setdefault(layer, []).append((interval, device_id))
        return holders

    def _source_pieces(
        self,
        layer: int,
        needed: Tuple[float, float],
        holders: Holders,
        destination: DeviceId,
    ) -> List[Tuple[Optional[DeviceId], float]]:
        """Split a needed shard interval into (source, fraction) pieces.

        Same-instance sources first, then same-zone ones (unless evacuating
        or the network knows no zones), then the rest; portions nobody
        holds go to storage (``source=None``).
        """
        zone_of = self.network.zone_of if not self.evacuation_mode else None
        candidates = self._ranked_sources(holders.get(layer, []), destination, zone_of)
        return self._pieces_from_sources(candidates, needed)

    @staticmethod
    def _ranked_sources(
        candidates: Sequence[Tuple[Tuple[float, float], DeviceId]],
        destination: DeviceId,
        zone_of,
    ) -> List[Tuple[Tuple[float, float], DeviceId]]:
        """Sort holder candidates by the source-preference total order."""

        def source_rank(item: Tuple[Tuple[float, float], DeviceId]) -> Tuple:
            _, device_id = item
            same_instance = device_id[0] == destination[0]
            if zone_of is None:
                same_zone = True
            else:
                same_zone = zone_of(device_id[0]) == zone_of(destination[0])
            return (not same_instance, not same_zone, device_id)

        return sorted(candidates, key=source_rank)
