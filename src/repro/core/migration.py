"""Migration planner: progressive, memory-bounded context migration.

After the device mapper fixes *where* every GPU goes, the migration planner
(Algorithm 2) decides *in which order* context tensors move so that

* the KV cache moves first (so decoding progress survives even if another
  interruption lands mid-migration),
* front pipeline stages finish their migration early and can resume serving
  while later stages are still transferring (progressive migration), and
* the transient receive-buffer memory on every instance stays below the
  budget ``U_max`` (memory-optimised ordering), which is what lets SpotServe
  serve GPT-20B on 12 GPUs instead of 16.

The planner produces a :class:`MigrationPlan` made of :class:`MigrationStep`
objects (one per layer plus one leading cache step), each carrying the
point-to-point :class:`~repro.sim.network.Transfer` objects needed.  Timing
comes from the :class:`~repro.sim.network.NetworkModel`; context that no
surviving GPU holds any more must be fetched from cloud storage instead,
which is dramatically slower and corresponds to the paper's fault-tolerance
fallback of reloading weights from S3/disk.

Fast path
---------

``plan`` runs on every reconfiguring adaptation round.  The planner has one
implementation, built in four layers, each byte-identical to the scalar
per-device reference in ``tests/oracles/migration.py`` that
``tests/test_planner_fast_path.py`` compares it against:

1. **Geometry interning** — ``shard_interval`` / ``stage_layers`` are pure
   functions of small integer signatures and are memoised at module level;
   holder tables are built per distinct (degrees, stage, shard) context
   signature instead of per device, and every layer held by the same set
   of signatures shares one numbered holder bucket.
2. **Per-bucket step construction** — destinations whose own context
   already sits at their new position need nothing and are dropped first,
   before any holder table is built; a table is built only when a
   destination remains.  The sorted source candidate order for a
   destination depends on it only through its instance (when the layer's
   bucket holds that instance) or its zone (when it does not), so the
   ranked candidate list is computed once per (bucket, destination class)
   and the greedy piece cover once per (bucket, destination class, missing
   segments), not per layer, and the resulting ``Transfer`` lists are
   instantiated per device and layer.  The weight steps and the cache step
   share that loop (``_missing_pieces``).  Equivalence with the reference
   reduces to the candidate order being equal — which it is, because the
   sort key ``(not same_instance, not same_zone, device_id)`` is a total
   order (device ids are unique).
3. **Cross-round plan memoisation** — the finished plan is a pure function
   of (context signatures, placement, config, cache requirements,
   evacuation mode, buffer budget, network spec, bandwidth factor and
   zones), so repeated (placement, placement) shapes across rounds return
   the cached :class:`MigrationPlan` object.  Nothing clears the memo:
   every input is in the key, and the LRU bound caps what it retains.
4. **Ordering** — ``_assemble`` computes ``_buffer_deltas`` once per step
   and shares them between the ordering and the finalisation, which
   prices only steps with transfers.  The deferred-layer greedy argmin is
   evaluated as a numpy sweep over an (instances x layers) delta matrix,
   with dead columns masked to +inf so ``argmin``'s first-occurrence rule
   reproduces a strict-less first-min scan exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..engine.context import CacheContext, DeviceId, MetaContextManager, ModelContext
from ..engine.placement import TopologyPosition, shard_interval, stage_layers
from ..llm.memory import DEFAULT_MIGRATION_BUFFER_BYTES
from ..llm.spec import ModelSpec
from ..sim.network import NetworkModel, Transfer
from .config import ParallelConfig
from .device_mapper import DeviceMapping

#: Per-instance bandwidth for loading parameters from persistent/cloud
#: storage, bytes/s.  Instances load their own slices in parallel; at 1 GB/s
#: per instance a 120 B-parameter GPT (480 GB fp32 over 8 instances) takes
#: about two minutes, matching the paper's observation.
DEFAULT_STORAGE_BANDWIDTH = 1.0 * 1024 ** 3

#: Seconds to re-initialise an inference engine after a full restart, on
#: top of reloading the parameters from storage.
ENGINE_RESTART_TIME = 10.0

_Context = Union[ModelContext, CacheContext]

#: A holder bucket: ``(bucket id, (shard interval, device) pairs sorted by
#: device id, the instances of those devices)``.  Every layer held by the
#: same set of contexts shares one bucket.
_Bucket = Tuple[int, List[Tuple[Tuple[float, float], DeviceId]], Set[str]]

#: Layer -> the holder bucket of that layer.
_Holders = Dict[int, _Bucket]

#: Bucket of a layer that no device holds.
_NO_HOLDERS: _Bucket = (-1, [], set())

#: The pieces covering a layer's missing segments, in order: ``(source
#: device, or None for storage, shard fraction)``.
_Cover = List[Tuple[Optional[DeviceId], float]]

#: ``context_map`` entry of a device that holds no context at all.
_NO_CONTEXT: Tuple[None, None] = (None, None)


@lru_cache(maxsize=4096)
def _context_span(
    num_layers: int,
    pipeline_degree: int,
    tensor_degree: int,
    stage_index: int,
    shard_index: int,
) -> Tuple[int, int, Tuple[float, float]]:
    """Interned ``(first_layer, last_layer+1, shard_interval)`` of a context."""
    owned_layers = stage_layers(num_layers, pipeline_degree, stage_index)
    interval = shard_interval(tensor_degree, shard_index)
    if not owned_layers:
        return 0, 0, interval
    return owned_layers[0], owned_layers[-1] + 1, interval


def _settled(
    ctx: Optional[_Context], config: ParallelConfig, position: TopologyPosition
) -> bool:
    """True when *ctx* already sits at *position* of *config*: nothing moves to it."""
    return (
        ctx is not None
        and ctx.pipeline_degree == config.pipeline_degree
        and ctx.tensor_degree == config.tensor_degree
        and ctx.position.stage_index == position.stage_index
        and ctx.position.shard_index == position.shard_index
    )


def restart_stall_time(
    model: ModelSpec, config: ParallelConfig, gpus_per_instance: int
) -> float:
    """Serving stall of a full restart with no context reuse (the baselines').

    Every instance loads its GPUs' model slices from storage in parallel
    with the other instances, and the engine is re-initialised; nothing
    overlaps with serving.
    """
    per_gpu_bytes = model.total_param_bytes / (
        config.pipeline_degree * config.tensor_degree
    )
    per_instance_bytes = per_gpu_bytes * min(gpus_per_instance, config.num_gpus)
    load_time = per_instance_bytes / DEFAULT_STORAGE_BANDWIDTH
    return load_time + ENGINE_RESTART_TIME


@dataclass
class MigrationStep:
    """One unit of the migration plan (the cache, or one layer's weights)."""

    kind: str  # "cache" or "weight"
    layer_index: Optional[int]
    transfers: List[Transfer] = field(default_factory=list)
    storage_bytes: float = 0.0
    stages_ready: List[int] = field(default_factory=list)

    @property
    def total_bytes(self) -> float:
        """Bytes moved over the network by this step."""
        return sum(size for src, dst, size, _ in self.transfers if src != dst)


@dataclass
class MigrationPlan:
    """A complete, ordered context-migration plan.

    ``tier`` is ``"direct"`` for classic GPU-to-GPU plans (every field
    behaves exactly as before tiering existed) and ``"offload"`` for plans
    derived by :meth:`MigrationPlanner.derive_tiered_plan`, where a suffix
    of the steps is spilled to the host/object-storage tier inside the
    grace window and restored on the destination side afterwards.
    """

    steps: List[MigrationStep]
    layer_order: List[int]
    total_time: float
    stall_time: float
    peak_buffer_bytes: float
    storage_load_time: float
    total_bytes: float
    #: Transport tier of the plan: ``"direct"`` or ``"offload"``.
    tier: str = "direct"
    #: Spilled bytes each destination instance restores from the tier
    #: after the switch (offload plans only, else ``None``); their sum is
    #: what the grace window writes to the tier.
    spill_restores: Optional[Dict[str, float]] = None
    #: Duration of the source-side spill phase.  The destination-side
    #: restore takes the rest of an offload plan's stall:
    #: ``stall_time - window_time``.
    spill_time: float = 0.0
    #: Duration of the direct (GPU-to-GPU) prefix kept inside the window.
    direct_window_time: float = 0.0

    @property
    def is_empty(self) -> bool:
        """True when nothing needs to move."""
        return self.total_bytes <= 0 and self.storage_load_time <= 0

    @property
    def migration_time(self) -> float:
        """``T_mig``: the serving stall the interruption arranger budgets for."""
        return self.stall_time + self.storage_load_time

    @property
    def window_time(self) -> float:
        """Source-side work that must finish before the reclaim deadline.

        For direct plans this is exactly :attr:`migration_time` (the whole
        stall must fit the grace window, byte-identical to the pre-tiering
        arithmetic).  For tiered plans only the direct prefix plus the spill
        must beat the deadline -- the restore runs on surviving destinations
        after the sources are gone.
        """
        if self.tier == "direct":
            return self.migration_time
        return self.direct_window_time + self.spill_time


class MigrationPlanner:
    """Implements Algorithm 2 (progressive + memory-optimised migration).

    ``memory_optimized`` off (the Figure 9 ablation) migrates layers in
    naive order and stalls serving for the whole migration instead of
    resuming once the cache and the first stage are in place.
    """

    #: Cross-round plan-memo capacity.  The adaptation loop revisits a
    #: handful of (placement, placement) shapes between fleet changes, so a
    #: small LRU captures the hits while bounding retained Transfer lists.
    PLAN_MEMO_SIZE = 16

    def __init__(
        self,
        model: ModelSpec,
        network: Optional[NetworkModel] = None,
        max_buffer_bytes: float = DEFAULT_MIGRATION_BUFFER_BYTES,
        memory_optimized: bool = True,
    ) -> None:
        self.model = model
        self.network = network or NetworkModel()
        self.max_buffer_bytes = max_buffer_bytes
        self.memory_optimized = memory_optimized
        #: During a zone-outage evacuation the same-zone source preference is
        #: suspended: the richest context sources are the doomed zone itself,
        #: and every pull out of it is cross-zone by definition, so ranking
        #: sources by zone locality would only starve the evacuation of its
        #: best sources.  Toggled by the serving system alongside
        #: ``DeviceMapper.evacuation_mode``.
        self.evacuation_mode = False
        self._plan_memo: "OrderedDict[Tuple, MigrationPlan]" = OrderedDict()
        self.plan_memo_hits = 0
        self.plan_memo_misses = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def plan(
        self,
        meta_context: MetaContextManager,
        mapping: DeviceMapping,
        cache_requirements: Optional[Dict[int, Tuple[int, int, int]]] = None,
    ) -> MigrationPlan:
        """Build the migration plan for *mapping*.

        Parameters
        ----------
        meta_context:
            Current cluster context state (what every surviving GPU holds).
        mapping:
            Output of the device mapper: placement of devices at new positions.
        cache_requirements:
            ``new data index -> (old data index, batch_size, cached_tokens)``
            for every new pipeline that resumes an interrupted batch.
        """
        cache_requirements = cache_requirements or {}
        # One walk of the meta-context feeds the memo key, the holder
        # tables and the per-destination own-context lookups.
        context_map: Dict[DeviceId, Tuple] = {}
        for device_id, daemon in meta_context.daemons():
            mctx = daemon.model_context
            cctx = daemon.cache_context
            if mctx is not None or cctx is not None:
                context_map[device_id] = (mctx, cctx)
        zones = self._zones_for(context_map, mapping)
        key = self._plan_memo_key(context_map, mapping, cache_requirements, zones)
        cached = self._plan_memo.get(key)
        if cached is not None:
            self._plan_memo.move_to_end(key)
            self.plan_memo_hits += 1
            return cached
        self.plan_memo_misses += 1
        built = self._assemble(
            *self._build_steps(context_map, mapping, cache_requirements, zones),
            mapping,
        )
        self._plan_memo[key] = built
        while len(self._plan_memo) > self.PLAN_MEMO_SIZE:
            self._plan_memo.popitem(last=False)
        return built

    def derive_tiered_plan(
        self, plan: MigrationPlan, window: float
    ) -> Optional[MigrationPlan]:
        """Derive an offload-tier plan from *plan* that fits *window*.

        Keeps the longest prefix of the plan's steps on the direct
        GPU-to-GPU path and spills the remaining suffix to the network
        model's :class:`~repro.sim.network.OffloadTierSpec` (sources upload
        inside the grace window; surviving destinations download
        afterwards).  Returns ``None`` when no tier is configured, the plan
        already fits the window, nothing would be spilled, or even the
        all-spill plan (``k = 0``) cannot beat the deadline -- callers then
        fall through to the pre-tiering reroute fallback.

        The input plan may be a shared, memoised object: it is never
        mutated, and the derived plan shares its steps (read-only).  The
        suffix is recorded as per-destination restore bytes
        (:attr:`MigrationPlan.spill_restores`).  The derived plan is *not*
        memoised -- the window varies continuously with simulation time.
        """
        if self.network.offload_tier is None:
            return None
        if plan.tier != "direct" or plan.is_empty or not plan.steps:
            return None
        if plan.migration_time <= window:
            return None
        steps = plan.steps
        durations = [self.network.batch_time(step.transfers) for step in steps]
        prefix_time = 0.0
        prefix_times = [0.0]
        for duration in durations:
            prefix_time += duration
            prefix_times.append(prefix_time)
        # Largest k (steps kept direct) whose direct prefix plus the spill
        # of the suffix still beats the deadline.  k == len(steps) would
        # spill nothing and is excluded: if the full direct plan missed the
        # window, a tier-less derivation cannot help.
        best_k: Optional[int] = None
        for k in range(len(steps) - 1, -1, -1):
            suffix_transfers = [
                t for step in steps[k:] for t in step.transfers
            ]
            spill = self.network.spill_time(suffix_transfers)
            if prefix_times[k] + spill <= window:
                best_k = k
                break
        if best_k is None:
            return None
        suffix_transfers = [t for step in steps[best_k:] for t in step.transfers]
        spill_restores: Dict[str, float] = {}
        for t in suffix_transfers:
            if not t.is_noop and t.size_bytes > 0:
                dst = t.dst[0]
                spill_restores[dst] = spill_restores.get(dst, 0.0) + t.size_bytes
        if not spill_restores:
            # The deadline miss is not transfer-bound (e.g. storage loads):
            # spilling moves nothing and cannot shorten the plan.
            return None
        spill_time = self.network.spill_time(suffix_transfers)
        restore_time = self.network.restore_time(suffix_transfers)
        direct_window_time = prefix_times[best_k]
        stall_time = direct_window_time + spill_time + restore_time
        return MigrationPlan(
            steps=steps,
            layer_order=plan.layer_order,
            total_time=stall_time,
            stall_time=stall_time,
            peak_buffer_bytes=plan.peak_buffer_bytes,
            storage_load_time=plan.storage_load_time,
            total_bytes=plan.total_bytes,
            tier="offload",
            spill_restores=spill_restores,
            spill_time=spill_time,
            direct_window_time=direct_window_time,
        )

    # ------------------------------------------------------------------
    # Plan assembly
    # ------------------------------------------------------------------
    def _assemble(
        self,
        layer_steps: Dict[int, MigrationStep],
        cache_step: MigrationStep,
        mapping: DeviceMapping,
    ) -> MigrationPlan:
        config = mapping.config
        # One delta walk per step, shared by the ordering and the
        # finalisation.
        deltas_by_layer = {
            layer: self._buffer_deltas(step) for layer, step in layer_steps.items()
        }
        layer_order = self._order_layers(deltas_by_layer)
        ordered_steps: List[MigrationStep] = []
        step_deltas: List[Dict[str, float]] = []
        if cache_step.transfers or cache_step.storage_bytes:
            ordered_steps.append(cache_step)
            step_deltas.append(self._buffer_deltas(cache_step))
        # A stage is ready on the step of the last of its layers to move.
        # Stages own the ``stage_layers`` partition, the one every holder
        # table and transfer above is built from.
        stage_of: Dict[int, int] = {}
        stage_remaining: List[int] = []
        for stage in range(config.pipeline_degree):
            layers = stage_layers(self.model.num_layers, config.pipeline_degree, stage)
            stage_of.update(dict.fromkeys(layers, stage))
            stage_remaining.append(len(layers))
        for layer_index in layer_order:
            step = layer_steps[layer_index]
            stage = stage_of[layer_index]
            stage_remaining[stage] -= 1
            if stage_remaining[stage] == 0:
                step.stages_ready.append(stage)
            ordered_steps.append(step)
            step_deltas.append(deltas_by_layer[layer_index])

        return self._finalize(ordered_steps, step_deltas, layer_order, config)

    def _zones_for(
        self, context_map: Dict[DeviceId, Tuple], mapping: DeviceMapping
    ) -> Dict[str, Optional[str]]:
        """Zone per instance, resolved through ``zone_of`` once per plan.

        Covers every instance appearing in the context map or the placement;
        empty when the network model has no zone function.  Built with the
        *real* ``zone_of`` even in evacuation mode — the memo key always
        captures true zones; only source *ranking* ignores them.
        """
        zone_of = self.network.zone_of
        zones: Dict[str, Optional[str]] = {}
        if zone_of is None:
            return zones
        for device_id in context_map:
            instance = device_id[0]
            if instance not in zones:
                zones[instance] = zone_of(instance)
        for device_id in mapping.placement:
            instance = device_id[0]
            if instance not in zones:
                zones[instance] = zone_of(instance)
        return zones

    def _plan_memo_key(
        self,
        context_map: Dict[DeviceId, Tuple],
        mapping: DeviceMapping,
        cache_requirements: Dict[int, Tuple[int, int, int]],
        zones: Dict[str, Optional[str]],
    ) -> Tuple:
        """Exact inputs the plan is a function of, as a hashable key.

        Context entries are sorted by device id (holder build order cannot
        affect the plan — the candidate sort key is a total order), but
        ``placement`` and ``cache_requirements`` keep their iteration order
        because it determines ``Transfer`` ordering inside steps.  Zones are
        captured per instance so the key does not rely on ``zone_of``
        stability.
        """
        context_entries = []
        for device_id, (mctx, cctx) in context_map.items():
            msig = (
                (mctx.pipeline_degree, mctx.tensor_degree, mctx.position)
                if mctx is not None
                else None
            )
            csig = (
                (cctx.pipeline_degree, cctx.tensor_degree, cctx.position)
                if cctx is not None
                else None
            )
            context_entries.append((device_id, zones.get(device_id[0]), msig, csig))
        context_entries.sort(key=lambda entry: entry[0])
        placement_sig = tuple(
            (device_id, zones.get(device_id[0]), position)
            for device_id, position in mapping.placement.items()
        )
        return (
            tuple(context_entries),
            mapping.config,
            placement_sig,
            tuple(cache_requirements.items()),
            self.evacuation_mode,
            self.max_buffer_bytes,
            self.memory_optimized,
            self.network.spec,
            self.network.bandwidth_factor,
        )

    # ------------------------------------------------------------------
    # Step construction
    # ------------------------------------------------------------------
    def _build_steps(
        self,
        context_map: Dict[DeviceId, Tuple],
        mapping: DeviceMapping,
        cache_requirements: Dict[int, Tuple[int, int, int]],
        zones: Dict[str, Optional[str]],
    ) -> Tuple[Dict[int, MigrationStep], MigrationStep]:
        """The per-layer weight steps and the cache step of one plan.

        Weight slices that no surviving GPU holds are billed to storage.
        Lost cache cannot be reloaded from storage; it is simply recomputed
        and not billed to the plan.  Destinations whose own context already
        sits at their new position are dropped before any holder table is
        built, and a table is built only for the destinations that remain.
        """
        config = mapping.config
        rank_zones = (
            zones
            if self.network.zone_of is not None and not self.evacuation_mode
            else None
        )
        num_layers = self.model.num_layers
        layer_steps: Dict[int, MigrationStep] = {
            layer: MigrationStep(kind="weight", layer_index=layer)
            for layer in range(num_layers)
        }
        targets = []
        for device_id, position in mapping.placement.items():
            mctx = context_map.get(device_id, _NO_CONTEXT)[0]
            if not _settled(mctx, config, position):
                targets.append((device_id, position, mctx))
        if targets:
            model_holders = self._holder_table(
                (device_id, mctx)
                for device_id, (mctx, _) in context_map.items()
                if mctx is not None
            )
            layer_param_bytes = self.model.layer_param_bytes
            tags = [f"model:layer{layer}" for layer in range(num_layers)]
            for layer, device_id, cover in self._missing_pieces(
                targets, config, model_holders, rank_zones
            ):
                step = layer_steps[layer]
                tag = tags[layer]
                for source, fraction in cover:
                    size = fraction * layer_param_bytes
                    if size <= 0:
                        continue
                    if source is None:
                        step.storage_bytes += size
                    else:
                        step.transfers.append(Transfer(source, device_id, size, tag))

        cache_step = MigrationStep(kind="cache", layer_index=None)
        for new_data_index, (old_data_index, batch_size, cached_tokens) in cache_requirements.items():
            if cached_tokens <= 0:
                continue
            targets = []
            for device_id, position in mapping.placement.items():
                if position.data_index != new_data_index:
                    continue
                cctx = context_map.get(device_id, _NO_CONTEXT)[1]
                if cctx is not None and cctx.position.data_index != old_data_index:
                    cctx = None
                if not _settled(cctx, config, position):
                    targets.append((device_id, position, cctx))
            if not targets:
                continue
            per_layer_bytes = (
                2.0
                * self.model.hidden_size
                * self.model.bytes_per_cache_element
                * batch_size
                * cached_tokens
            )
            cache_holders = self._holder_table(
                (device_id, cctx)
                for device_id, (_, cctx) in context_map.items()
                if cctx is not None and cctx.position.data_index == old_data_index
            )
            tag = f"cache:pipeline{new_data_index}"
            for _, device_id, cover in self._missing_pieces(
                targets, config, cache_holders, rank_zones
            ):
                for source, fraction in cover:
                    size = fraction * per_layer_bytes
                    if size > 0 and source is not None:
                        cache_step.transfers.append(Transfer(source, device_id, size, tag))
        return layer_steps, cache_step

    def _missing_pieces(
        self,
        targets: Sequence[Tuple[DeviceId, TopologyPosition, Optional[_Context]]],
        config: ParallelConfig,
        holders: _Holders,
        rank_zones: Optional[Dict[str, Optional[str]]],
    ) -> Iterator[Tuple[int, DeviceId, _Cover]]:
        """Yield ``(layer, destination, cover)`` for each layer a destination misses.

        A target is ``(device, new position, own context or None)``, and no
        target is settled (:func:`_settled`).  The shard segments of the new
        position that the own context does not cover on a layer are split
        greedily across that layer's ranked holders.  The cover lists the
        resulting ``(source, fraction)`` pieces segment by segment;
        ``source=None`` marks a portion nobody holds.

        The sort key ``(not same_instance, not same_zone, device_id)``
        depends on the destination only through its instance and zone, so a
        layer's ranked candidates depend only on its holder bucket and the
        destination's class in it: its instance when the bucket holds that
        instance (``0``), else its zone (``1``; the discriminant keeps
        instance ids and zone names apart).  Ranked lists are cached per
        (bucket, class) and covers per (bucket, class, missing segments),
        then shared by every layer and destination that meet them.  A
        destination's adjacent layers mostly share both, so a cover is
        looked up only when either changes.  Iteration order -- targets,
        then layers, then segments, then pieces -- fixes the ``Transfer``
        order in steps.
        """
        num_layers = self.model.num_layers
        new_pd = config.pipeline_degree
        new_td = config.tensor_degree
        ranked_cache: Dict[Tuple, List[Tuple[Tuple[float, float], DeviceId]]] = {}
        covers: Dict[Tuple, _Cover] = {}
        for device_id, position, own in targets:
            whole = (shard_interval(new_td, position.shard_index),)
            rest = whole
            own_lo = own_hi = 0
            if own is not None:
                cpos = own.position
                own_lo, own_hi, own_interval = _context_span(
                    num_layers,
                    own.pipeline_degree,
                    own.tensor_degree,
                    cpos.stage_index,
                    cpos.shard_index,
                )
                rest = self._subtract_interval(whole[0], own_interval)
            instance = device_id[0]
            dest_zone = rank_zones[instance] if rank_zones is not None else None
            last_bucket = last_missing = cover = None
            for layer in stage_layers(num_layers, new_pd, position.stage_index):
                missing = rest if own_lo <= layer < own_hi else whole
                if not missing:
                    continue
                bucket = holders.get(layer, _NO_HOLDERS)
                if bucket is not last_bucket or missing is not last_missing:
                    last_bucket, last_missing = bucket, missing
                    bucket_id, candidates, instances = bucket
                    rank_key = (
                        (bucket_id, 0, instance)
                        if instance in instances
                        else (bucket_id, 1, dest_zone)
                    )
                    cover_key = (rank_key, missing)
                    cover = covers.get(cover_key)
                    if cover is None:
                        ranked = ranked_cache.get(rank_key)
                        if ranked is None:
                            ranked = self._partition_ranked(
                                candidates, instance, dest_zone, rank_zones
                            )
                            ranked_cache[rank_key] = ranked
                        cover = [
                            piece
                            for segment in missing
                            for piece in self._pieces_from_sources(ranked, segment)
                        ]
                        covers[cover_key] = cover
                yield layer, device_id, cover

    # ------------------------------------------------------------------
    # Layer ordering (Algorithm 2)
    # ------------------------------------------------------------------
    def _order_layers(self, deltas_by_layer: Dict[int, Dict[str, float]]) -> List[int]:
        """Algorithm 2's layer order, from each layer step's buffer deltas."""
        layers = list(range(self.model.num_layers))
        if not self.memory_optimized:
            return layers
        usage: Dict[str, float] = {}
        order: List[int] = []
        deferred: List[int] = []
        for layer in layers:
            deltas = deltas_by_layer[layer]
            if self._within_budget(usage, deltas):
                self._apply_deltas(usage, deltas)
                order.append(layer)
            else:
                deferred.append(layer)
        if not deferred:
            return order
        order.extend(self._drain_deferred(usage, deferred, deltas_by_layer))
        return order

    def _drain_deferred(
        self,
        usage: Dict[str, float],
        deferred: List[int],
        deltas_by_layer: Dict[int, Dict[str, float]],
    ) -> List[int]:
        """Order the deferred layers by repeatedly picking the lowest peak.

        Each pick is the first deferred layer whose step leaves the lowest
        post-step peak buffer usage, evaluated as one numpy sweep over an
        (instances x deferred layers) delta matrix.  ``max(u_i + delta,
        0.0)`` with ``delta = 0`` reproduces instances untouched by a layer
        (usage values are already clamped >= 0, so the clamp is a no-op for
        them), and all-zero extra rows cannot change a column max over
        non-negative values.  Dead columns are masked to +inf so
        ``argmin``'s first-occurrence rule equals a strict-less scan over
        the shrinking deferred list (``list.pop`` preserves the relative
        order of survivors).
        """
        instances = sorted(
            set(usage).union(
                *(deltas_by_layer[layer].keys() for layer in deferred)
            )
        )
        order: List[int] = []
        if not instances:
            # No transfers touch any instance: every peak is 0.0 and each
            # round picks the first remaining deferred layer.
            return list(deferred)
        index_of = {instance: i for i, instance in enumerate(instances)}
        delta_matrix = np.zeros((len(instances), len(deferred)))
        for column, layer in enumerate(deferred):
            for instance, delta in deltas_by_layer[layer].items():
                delta_matrix[index_of[instance], column] = delta
        usage_vector = np.array([usage.get(instance, 0.0) for instance in instances])
        alive = np.ones(len(deferred), dtype=bool)
        for _ in range(len(deferred)):
            peaks = np.maximum(usage_vector[:, None] + delta_matrix, 0.0).max(axis=0)
            peaks[~alive] = np.inf
            column = int(np.argmin(peaks))
            if not alive[column]:
                # Every live peak itself overflowed to +inf (astronomical
                # transfer sizes), making live columns indistinguishable
                # from the dead-column mask.  A strict-less scan never
                # updates in that case and keeps position 0 -- the first
                # *live* candidate.
                column = int(np.flatnonzero(alive)[0])
            alive[column] = False
            usage_vector = np.maximum(
                usage_vector + delta_matrix[:, column], 0.0
            )
            order.append(deferred[column])
        return order

    def _buffer_deltas(self, step: MigrationStep) -> Dict[str, float]:
        """Net buffer-memory change per instance caused by one step."""
        deltas: Dict[str, float] = {}
        for src, dst, size, _ in step.transfers:
            if src == dst:
                continue
            deltas[dst[0]] = deltas.get(dst[0], 0.0) + size
            deltas[src[0]] = deltas.get(src[0], 0.0) - size
        return deltas

    def _within_budget(self, usage: Dict[str, float], deltas: Dict[str, float]) -> bool:
        return all(
            max(usage.get(instance, 0.0) + delta, 0.0) <= self.max_buffer_bytes
            for instance, delta in deltas.items()
        )

    @staticmethod
    def _apply_deltas(usage: Dict[str, float], deltas: Dict[str, float]) -> None:
        for instance, delta in deltas.items():
            usage[instance] = max(usage.get(instance, 0.0) + delta, 0.0)

    # ------------------------------------------------------------------
    # Plan finalisation
    # ------------------------------------------------------------------
    def _finalize(
        self,
        steps: List[MigrationStep],
        step_deltas: List[Dict[str, float]],
        layer_order: List[int],
        config: ParallelConfig,
    ) -> MigrationPlan:
        """Price the ordered *steps*; ``step_deltas[i]`` is step i's buffer deltas.

        A step without transfers adds no time, bytes or buffer use, so it
        is not priced.
        """
        total_time = 0.0
        stall_time = 0.0
        storage_bytes = 0.0
        total_bytes = 0.0
        usage: Dict[str, float] = {}
        peak = 0.0
        first_stage_ready_time: Optional[float] = None

        for step, deltas in zip(steps, step_deltas):
            if step.transfers:
                total_time += self.network.batch_time(step.transfers)
                total_bytes += step.total_bytes
                self._apply_deltas(usage, deltas)
                peak = max(peak, max(usage.values(), default=0.0))
            storage_bytes += step.storage_bytes
            if 0 in step.stages_ready and first_stage_ready_time is None:
                first_stage_ready_time = total_time

        if self.memory_optimized and first_stage_ready_time is not None:
            # Serving resumes once the cache and the first stage are in place;
            # the remaining stages migrate while the pipeline refills.
            stall_time = first_stage_ready_time
        else:
            stall_time = total_time
        if not steps:
            stall_time = 0.0

        storage_load_time = self._storage_time(storage_bytes, max(config.num_gpus, 1))
        return MigrationPlan(
            steps=steps,
            layer_order=layer_order,
            total_time=total_time,
            stall_time=stall_time,
            peak_buffer_bytes=peak,
            storage_load_time=storage_load_time,
            total_bytes=total_bytes,
        )

    def _storage_time(self, storage_bytes: float, parallelism: int) -> float:
        """Time to fetch *storage_bytes* from cloud storage.

        ``parallelism`` is the number of GPUs receiving data; roughly one
        quarter of them (one per 4-GPU instance) can stream from storage
        concurrently at the per-instance bandwidth.
        """
        if storage_bytes <= 0:
            return 0.0
        concurrent_instances = max(parallelism // 4, 1)
        effective = DEFAULT_STORAGE_BANDWIDTH * concurrent_instances
        return storage_bytes / max(effective, 1.0)

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def _holder_table(self, contexts: Iterable[Tuple[DeviceId, _Context]]) -> _Holders:
        """The holder bucket of every layer some given context holds.

        Devices are grouped by their (degrees, stage, shard) context
        signature so each group's layer span and shard interval resolve
        once.  Stage spans are contiguous, so runs of adjacent layers are
        covered by the same set of groups; each distinct coverage set is
        expanded and device-id-sorted once into one bucket, numbered in
        build order and shared, read-only, by every layer with that
        coverage.  The device-id sort is what lets
        :meth:`_partition_ranked` skip sorting entirely; the bucket number
        and instance set key and class :meth:`_missing_pieces`' caches.
        """
        groups: Dict[Tuple[int, int, int, int], List[DeviceId]] = {}
        for device_id, ctx in contexts:
            sig = (
                ctx.pipeline_degree,
                ctx.tensor_degree,
                ctx.position.stage_index,
                ctx.position.shard_index,
            )
            groups.setdefault(sig, []).append(device_id)
        num_layers = self.model.num_layers
        group_entries: List[Tuple[Tuple[float, float], List[DeviceId]]] = []
        coverage: Dict[int, List[int]] = {}
        for (pd, td, stage, shard), devices in groups.items():
            gi = len(group_entries)
            group_entries.append((shard_interval(td, shard), devices))
            for layer in stage_layers(num_layers, pd, stage):
                coverage.setdefault(layer, []).append(gi)
        holders: _Holders = {}
        buckets: Dict[Tuple[int, ...], _Bucket] = {}
        for layer, group_ids in coverage.items():
            ckey = tuple(group_ids)
            bucket = buckets.get(ckey)
            if bucket is None:
                entries: List[Tuple[Tuple[float, float], DeviceId]] = []
                instances: Set[str] = set()
                for gi in group_ids:
                    interval, devices = group_entries[gi]
                    for device_id in devices:
                        entries.append((interval, device_id))
                        instances.add(device_id[0])
                entries.sort(key=lambda item: item[1])
                bucket = (len(buckets), entries, instances)
                buckets[ckey] = bucket
            holders[layer] = bucket
        return holders

    @staticmethod
    def _partition_ranked(
        bucket: Sequence[Tuple[Tuple[float, float], DeviceId]],
        instance: str,
        dest_zone: Optional[str],
        zones: Optional[Dict[str, Optional[str]]],
    ) -> List[Tuple[Tuple[float, float], DeviceId]]:
        """Rank a device-id-sorted bucket without sorting.

        Sources on the destination's instance come first, then sources in
        its availability zone, then everything else -- cross-zone pulls ride
        the slowest link tier, so they are the last resort.  In
        ``evacuation_mode`` the zone tier is dropped: an evacuation *must*
        pull context out of the dying zone before it disappears.

        As a sort, that order is ``sorted`` by ``(not same_instance,
        not same_zone, device_id)``.  A stable three-way partition of a
        bucket already sorted by device id produces exactly that order:
        relative device-id order is preserved within each class, and
        device id is the sort key's only tie-break.  ``zones is None``
        reproduces the ``zone_of is None`` / evacuation branch, where every
        candidate counts as same-zone.
        """
        same_instance: List[Tuple[Tuple[float, float], DeviceId]] = []
        same_zone: List[Tuple[Tuple[float, float], DeviceId]] = []
        others: List[Tuple[Tuple[float, float], DeviceId]] = []
        if zones is None:
            for item in bucket:
                if item[1][0] == instance:
                    same_instance.append(item)
                else:
                    same_zone.append(item)
        else:
            for item in bucket:
                source = item[1][0]
                if source == instance:
                    same_instance.append(item)
                elif zones[source] == dest_zone:
                    same_zone.append(item)
                else:
                    others.append(item)
        return same_instance + same_zone + others

    @staticmethod
    def _pieces_from_sources(
        candidates: Sequence[Tuple[Tuple[float, float], DeviceId]],
        needed: Tuple[float, float],
    ) -> List[Tuple[Optional[DeviceId], float]]:
        """Greedy interval cover of *needed* by ranked candidates."""
        pieces: List[Tuple[Optional[DeviceId], float]] = []
        remaining = [needed]
        for interval, device_id in candidates:
            if not remaining:
                break
            next_remaining: List[Tuple[float, float]] = []
            for segment in remaining:
                overlap_start = max(segment[0], interval[0])
                overlap_end = min(segment[1], interval[1])
                if overlap_end > overlap_start:
                    pieces.append((device_id, overlap_end - overlap_start))
                    if segment[0] < overlap_start:
                        next_remaining.append((segment[0], overlap_start))
                    if overlap_end < segment[1]:
                        next_remaining.append((overlap_end, segment[1]))
                else:
                    next_remaining.append(segment)
            remaining = next_remaining
        for segment in remaining:
            width = segment[1] - segment[0]
            if width > 0:
                pieces.append((None, width))
        return pieces

    @staticmethod
    def _subtract_interval(
        needed: Tuple[float, float], owned: Optional[Tuple[float, float]]
    ) -> Tuple[Tuple[float, float], ...]:
        """Portions of *needed* not covered by *owned*, as a hashable tuple."""
        if owned is None:
            return (needed,)
        result: List[Tuple[float, float]] = []
        if owned[0] > needed[0]:
            result.append((needed[0], min(owned[0], needed[1])))
        if owned[1] < needed[1]:
            result.append((max(owned[1], needed[0]), needed[1]))
        return tuple(segment for segment in result if segment[1] - segment[0] > 1e-12)
