"""Device mapper: bipartite matching of GPUs onto the new device mesh.

Given the target configuration ``C_{t+1}`` proposed by the parallelization
controller and the current contents of every GPU's context daemon, the device
mapper decides *which physical GPU should take which pipeline-stage-shard
position* so that as much model context and KV cache as possible stays where
it already is (Section 3.3).

The decision is a maximum-weight bipartite matching problem: devices on one
side, topology positions on the other, edge weights equal to the bytes of
reusable context.  SpotServe solves it with the Kuhn-Munkres algorithm.  For
multi-GPU instances the paper applies a hierarchical two-step matching
(inter-instance first, intra-instance second) so that tensor groups stay
within the fast intra-instance interconnect.

The mapper solves the hierarchical matching first.  No matching can reuse
more than the smaller of the sum of row maxima and the sum of column maxima
of the weight matrix.  When every weight is an integer and that bound is
below 2^53, every float sum over the matrix is exact, so a hierarchical
placement that reaches the bound is optimal and the flat global matching is
not solved.  Otherwise the flat matching is solved too and replaces the
hierarchical placement only when it reuses strictly more.  Single-GPU
instances have no hierarchy, and the ablation (``use_optimal_matching``
off) swaps Kuhn-Munkres for one greedy flat matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.context import DeviceId, MetaContextManager
from ..engine.placement import (
    TopologyPosition,
    mesh_positions,
    position_cache_bytes,
    position_model_bytes,
)
from ..llm.spec import ModelSpec
from ..matching.bipartite import positive_components
from ..matching.hungarian import greedy_assignment, maximum_weight_assignment
from .config import ParallelConfig

#: Dense reuse-weight view of one map round: the full device x position
#: matrix plus the index maps back to device ids and positions.  Every cell
#: is bit-identical to the scalar weight of its (device, position) pair
#: (``reuse_weight`` in tests/oracles/device_mapper.py).
_WeightLookup = Tuple[
    np.ndarray, Dict[DeviceId, int], Dict[TopologyPosition, int]
]


def _overlap_cell(
    num_layers: int,
    new_shape: Tuple[int, int],
    signature: Tuple[int, int, int, int],
    layer_bytes: float,
) -> np.ndarray:
    """One new pipeline's reusable bytes of one old slice, in (p, m) order.

    *new_shape* is the new mesh's ``(P, M)``; *signature* is the old
    slice's ``(P, M, stage, shard)``, holding *layer_bytes* per layer.
    The new stages' layer ranges and shards' intervals are computed
    exactly as ``stage_layer_range`` and ``shard_interval`` compute them
    (int * float products, elementwise).
    """
    new_pipeline, new_tensor = new_shape
    old_pipeline, old_tensor, stage, shard = signature
    stages = np.arange(new_pipeline)
    new_lps = num_layers / new_pipeline
    old_lps = num_layers / old_pipeline
    layer_overlap = np.maximum(
        0.0,
        np.minimum((stage + 1) * old_lps, (stages + 1) * new_lps)
        - np.maximum(stage * old_lps, stages * new_lps),
    )
    shards = np.arange(new_tensor)
    new_width = 1.0 / new_tensor
    old_width = 1.0 / old_tensor
    fraction_overlap = np.maximum(
        0.0,
        np.minimum((shard + 1) * old_width, (shards + 1) * new_width)
        - np.maximum(shard * old_width, shards * new_width),
    )
    return np.outer(layer_overlap * layer_bytes, fraction_overlap).ravel()


@lru_cache(maxsize=4096)
def _model_row(
    num_layers: int,
    layer_bytes: float,
    signature: Tuple[int, int, int, int],
    data_degree: int,
    pipeline_degree: int,
    tensor_degree: int,
) -> np.ndarray:
    """The model part of a weight-matrix row over a whole (D, P, M) mesh.

    *signature* is a model context's ``(P, M, stage, shard)``; replicas
    hold identical parameters, so every new pipeline gets the same cell.
    Pure and memoised, like ``stage_layers``: the row is shared by every
    call, so it is read-only.
    """
    cell = _overlap_cell(num_layers, (pipeline_degree, tensor_degree), signature, layer_bytes)
    row = np.tile(cell, data_degree)
    row.setflags(write=False)
    return row


@dataclass
class DeviceMapping:
    """Result of mapping available devices onto a target configuration."""

    config: ParallelConfig
    placement: Dict[DeviceId, TopologyPosition] = field(default_factory=dict)
    reused_bytes: float = 0.0
    required_bytes: float = 0.0

    @property
    def transfer_bytes(self) -> float:
        """Bytes of context that must be migrated or loaded from storage."""
        return max(self.required_bytes - self.reused_bytes, 0.0)

    @property
    def reuse_fraction(self) -> float:
        """Fraction of the new deployment's context already in place."""
        if self.required_bytes <= 0:
            return 1.0
        return min(self.reused_bytes / self.required_bytes, 1.0)


class DeviceMapper:
    """Builds the bipartite reuse matrix and solves it with Kuhn-Munkres.

    ``zone_of`` (instance id -> availability zone) makes the mapper
    zone-aware: positions that carry no reusable context are filled so that
    each data-parallel pipeline stays inside as few zones as possible, which
    keeps migration and activation hand-offs off the slow cross-zone links.
    """

    def __init__(
        self,
        model: ModelSpec,
        gpus_per_instance: int = 4,
        use_optimal_matching: bool = True,
        zone_of: Optional[Callable[[str], str]] = None,
    ) -> None:
        self.model = model
        self.gpus_per_instance = gpus_per_instance
        self.use_optimal_matching = use_optimal_matching
        self.zone_of = zone_of
        #: During a zone-outage evacuation the intra-zone clustering
        #: preference is suspended: re-placing the lost pipelines on whatever
        #: survives matters more than keeping pipelines zone-local, and the
        #: surviving fleet rarely has a whole pipeline's worth of free
        #: devices in any single zone anyway.  Toggled by the serving system
        #: (see ``SpotServeSystem.handle_zone_outage``).
        self.evacuation_mode = False

    # ------------------------------------------------------------------
    # Vectorized weight matrix
    # ------------------------------------------------------------------
    def _weight_lookup(
        self,
        meta_context: MetaContextManager,
        devices: Sequence[DeviceId],
        positions: Sequence[TopologyPosition],
        new_config: ParallelConfig,
        pipeline_inheritance: Optional[Dict[int, int]],
    ) -> _WeightLookup:
        """Dense weight matrix plus device/position index maps for one round."""
        matrix = self._weight_matrix(
            meta_context, devices, new_config, pipeline_inheritance
        )
        row_of = {device_id: row for row, device_id in enumerate(devices)}
        col_of = {position: col for col, position in enumerate(positions)}
        return matrix, row_of, col_of

    def _weight_matrix(
        self,
        meta_context: MetaContextManager,
        devices: Sequence[DeviceId],
        new_config: ParallelConfig,
        pipeline_inheritance: Optional[Dict[int, int]],
    ) -> np.ndarray:
        """Reuse-weight matrix: the bytes each device could reuse at each position.

        A device's weight at a position is its model context's reusable
        bytes there, plus its cache context's when that position's pipeline
        inherits the old pipeline's in-flight requests (every pipeline
        without an inheritance map; Figure 4b).  Each part is the old and
        new stages' layer overlap times the bytes per layer, times the old
        and new shards' interval overlap.

        A device's weights depend on few of its context's fields, and a
        fleet repeats them, so each distinct value is built once:

        * the model part depends only on the model context's
          ``(P, M, stage, shard)`` *model signature* -- replicas hold
          identical parameters, so the old data index does not matter.  It
          is one row over the whole new mesh, the same for every new
          pipeline, built once per shape by :func:`_model_row` and added
          to all of the signature's devices' rows in one step;
        * the cache part depends only on the cache context's ``(P, M,
          stage, shard, batch, tokens)`` *cache signature*, plus which new
          pipeline inherits the old one.  It is one *cell*: the weights of
          one new pipeline's ``P_new * M_new`` positions, which land in the
          inheriting pipeline's slice of the row (every slice without an
          inheritance map).

        Within a signature the weights factorise over the new mesh into a
        per-stage layer overlap times a per-shard interval overlap, so one
        ``(P_new,) x (M_new,)`` outer product replaces ``P * M`` scalar
        weights.  Each device's row is then ``0 + model``, with ``+ cache``
        on the inheriting slice: the same IEEE-754 operations in the same
        order as the scalar weight of one (device, position) pair.  The
        overlaps are the same ``max(0.0, min(..) - max(..))`` expressions,
        the products keep the scalar ``(overlap * bytes) * fraction``
        association, and the scalar weight's early ``return 0.0`` guards
        coincide with multiplying by a ``+0.0`` overlap factor (every
        factor is non-negative, so no ``-0.0`` can appear).
        """
        model = self.model
        num_layers = model.num_layers
        data_degree = new_config.data_degree
        pipeline_degree = new_config.pipeline_degree
        tensor_degree = new_config.tensor_degree
        cells_per_pipeline = pipeline_degree * tensor_degree

        matrix = np.zeros((len(devices), data_degree * cells_per_pipeline))
        model_groups: Dict[Tuple[int, int, int, int], List[int]] = {}
        caches = []
        daemon_of = meta_context.daemon
        for row_index, device_id in enumerate(devices):
            daemon = daemon_of(device_id)
            context = daemon.model_context
            if context is not None:
                position = context.position
                model_key = (
                    context.pipeline_degree,
                    context.tensor_degree,
                    position.stage_index,
                    position.shard_index,
                )
                model_groups.setdefault(model_key, []).append(row_index)
            context = daemon.cache_context
            if (
                context is not None
                and context.cached_tokens > 0
                and context.batch_size > 0
            ):
                caches.append((row_index, context))
        # One model row per signature, added to all of its devices' rows.
        for model_key, rows in model_groups.items():
            matrix[rows] += _model_row(
                num_layers,
                model.layer_param_bytes,
                model_key,
                data_degree,
                pipeline_degree,
                tensor_degree,
            )
        cache_cells: Dict[Tuple[int, int, int, int, int, int], np.ndarray] = {}
        all_pipelines = range(data_degree)
        for row_index, context in caches:
            position = context.position
            if pipeline_inheritance is None:
                targets = all_pipelines
            else:
                # Cache bytes only transfer into the pipeline that inherits
                # the old pipeline's in-flight requests.
                target = pipeline_inheritance.get(position.data_index)
                if target not in all_pipelines:
                    continue
                targets = (target,)
            cache_key = (
                context.pipeline_degree,
                context.tensor_degree,
                position.stage_index,
                position.shard_index,
                context.batch_size,
                context.cached_tokens,
            )
            cache_cell = cache_cells.get(cache_key)
            if cache_cell is None:
                per_layer_cache = (
                    2.0
                    * model.hidden_size
                    * model.bytes_per_cache_element
                    * context.batch_size
                    * context.cached_tokens
                )
                cache_cell = _overlap_cell(
                    num_layers,
                    (pipeline_degree, tensor_degree),
                    cache_key[:4],
                    per_layer_cache,
                )
                cache_cells[cache_key] = cache_cell
            for target in targets:
                start = target * cells_per_pipeline
                matrix[row_index, start : start + cells_per_pipeline] += cache_cell
        return matrix

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map_devices(
        self,
        meta_context: MetaContextManager,
        devices: Sequence[DeviceId],
        new_config: ParallelConfig,
        pipeline_inheritance: Optional[Dict[int, int]] = None,
        cached_tokens_per_pipeline: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> DeviceMapping:
        """Assign *devices* to the positions of *new_config*.

        ``cached_tokens_per_pipeline`` maps new data-parallel index ->
        ``(batch_size, cached_tokens)`` of the batch that pipeline will
        resume; it is only used to compute the total context the new
        deployment requires (the denominator of the reuse fraction).

        With Kuhn-Munkres on more than one GPU per instance the
        hierarchical placement is solved first, and the flat matching only
        when :meth:`_reaches_reuse_bound` cannot rule out that it reuses
        more; it replaces the hierarchical placement only on strictly more
        reuse.  The adopted placement, its dict order and ``reused_bytes``
        are bit-identical to solving both and keeping the hierarchical
        placement on ties.  The greedy ablation solves one flat matching.
        """
        positions = mesh_positions(
            new_config.data_degree, new_config.pipeline_degree, new_config.tensor_degree
        )
        if len(devices) < len(positions):
            raise ValueError(
                f"configuration {new_config} needs {len(positions)} GPUs "
                f"but only {len(devices)} are available"
            )
        lookup = self._weight_lookup(
            meta_context, devices, positions, new_config, pipeline_inheritance
        )
        if self.use_optimal_matching and self.gpus_per_instance > 1:
            # The two-step (inter-instance, then intra-instance) matching
            # keeps tensor groups co-located on fast links, but when shard
            # widths change it can strand reusable context on unmatched
            # instances; the flat KM matching replaces it when it reuses
            # strictly more.
            placement = self._hierarchical_matching(lookup, devices, positions)
            reused = self._placement_reuse(lookup, placement)
            if not self._reaches_reuse_bound(lookup[0], reused):
                flat_placement = self._flat_matching(lookup, devices, positions)
                flat_reused = self._placement_reuse(lookup, flat_placement)
                if flat_reused > reused:
                    placement, reused = flat_placement, flat_reused
        else:
            placement = self._flat_matching(lookup, devices, positions)
            reused = self._placement_reuse(lookup, placement)
        return DeviceMapping(
            config=new_config,
            placement=placement,
            reused_bytes=reused,
            required_bytes=self._required_bytes(
                new_config, cached_tokens_per_pipeline
            ),
        )

    @staticmethod
    def _reaches_reuse_bound(matrix: np.ndarray, reuse: float) -> bool:
        """True when no placement on *matrix* can reuse more than *reuse*.

        The weights are non-negative, so a placement (a matching) reuses at
        most the sum of the row maxima and at most the sum of the column
        maxima.  When every weight is an integer and the smaller sum is
        below 2^53, every partial sum of weights is an integer below 2^53
        and so exact in any order: the computed bound is the true one, and
        no other placement's float sum can exceed a *reuse* equal to it.
        With fractional weights a sum may round, so the answer is False.
        """
        bound = min(matrix.max(axis=1).sum(), matrix.max(axis=0).sum())
        return bool(
            reuse == bound
            and bound < 2.0**53
            and (np.floor(matrix) == matrix).all()
        )

    @staticmethod
    def _placement_reuse(
        lookup: _WeightLookup, placement: Dict[DeviceId, TopologyPosition]
    ) -> float:
        """Total reusable bytes of a concrete placement.

        The sum runs in ``placement`` insertion order and the matrix cells
        equal the scalar weights bitwise, so the total is bit-identical to
        summing the scalar weight over the placement (IEEE-754 addition is
        deterministic for a fixed operand order).
        """
        matrix, row_of, col_of = lookup
        return float(
            sum(
                matrix[row_of[device_id], col_of[position]]
                for device_id, position in placement.items()
            )
        )

    # ------------------------------------------------------------------
    # Matching strategies
    # ------------------------------------------------------------------
    def _flat_matching(
        self,
        lookup: _WeightLookup,
        devices: Sequence[DeviceId],
        positions: Sequence[TopologyPosition],
    ) -> Dict[DeviceId, TopologyPosition]:
        """Sparsified + decomposed flat matching.

        Two exact reductions shrink the solved matrices:

        * **sparsification** -- devices and positions with provably-zero
          weight rows/columns never enter the solver; they flow through the
          zone-aware :meth:`_fill_unassigned` path like any other
          zero-reuse pair;
        * **zone decomposition** -- the positive-edge structure decomposes
          into connected components (in practice: one per zone-local
          submesh), and since cross-component weights are identically zero
          (the dominance condition), each component is solved independently;
          disabled in ``evacuation_mode``, where zone locality is
          deliberately suspended.

        Matched pairs are committed in global device order, so the FP
        reuse-sum downstream visits weights in the same order as a dense
        global matching would.
        """
        matrix, _, _ = lookup
        placement: Dict[DeviceId, TopologyPosition] = {}
        if not self.use_optimal_matching:
            # Greedy ablation: positive edges only (zero-weight edges can
            # never change the matched weight).
            for row, col in greedy_assignment(matrix):
                placement[devices[row]] = positions[col]
            self._fill_unassigned(placement, devices, positions)
            return placement

        positive_rows = np.flatnonzero(matrix.any(axis=1))
        positive_cols = np.flatnonzero(matrix.any(axis=0))
        if positive_rows.size and positive_cols.size:
            sub = matrix[np.ix_(positive_rows, positive_cols)]
            if self.evacuation_mode:
                components = [
                    (list(range(sub.shape[0])), list(range(sub.shape[1])))
                ]
            else:
                components = positive_components(sub)
            matched: List[Tuple[int, int]] = []
            # Components with byte-identical matrices (e.g. one per pipeline
            # stage when old and new shard widths agree) share one solve.
            component_memo: Dict[Tuple, List[Tuple[int, int]]] = {}
            for component_rows, component_cols in components:
                component_matrix = sub[np.ix_(component_rows, component_cols)]
                memo_key = (component_matrix.shape, component_matrix.tobytes())
                pairs = component_memo.get(memo_key)
                if pairs is None:
                    pairs = maximum_weight_assignment(component_matrix)
                    component_memo[memo_key] = pairs
                for row, col in pairs:
                    matched.append(
                        (
                            int(positive_rows[component_rows[row]]),
                            int(positive_cols[component_cols[col]]),
                        )
                    )
            # Commit in global device order (see docstring).
            matched.sort()
            for row, col in matched:
                placement[devices[row]] = positions[col]
        self._fill_unassigned(placement, devices, positions)
        return placement

    def _hierarchical_matching(
        self,
        lookup: _WeightLookup,
        devices: Sequence[DeviceId],
        positions: Sequence[TopologyPosition],
    ) -> Dict[DeviceId, TopologyPosition]:
        """Two-step matching: instances to position groups, then GPUs within.

        The inner per-(instance, group) solves read submatrices (*blocks*)
        of the round's dense weight matrix.  All-zero blocks are never
        solved, byte-identical blocks are solved once (fleets are full of
        instances sharing a context signature), and the outer instance x
        group matrix holds each inner solve's matched weight.
        Intra-instance placements are materialised only for the
        (instance, group) pairs the outer matching selects.
        """
        # Group the target positions into instance-sized chunks, keeping the
        # deterministic (d, p, m) order so tensor shards stay co-located.
        gpi = self.gpus_per_instance
        groups = [positions[i : i + gpi] for i in range(0, len(positions), gpi)]
        # Bucket devices per instance.
        per_instance: Dict[str, List[DeviceId]] = {}
        for device_id in devices:
            per_instance.setdefault(device_id[0], []).append(device_id)
        instance_ids = sorted(per_instance)
        matrix, row_of, _ = lookup
        rows = [[row_of[d] for d in per_instance[i]] for i in instance_ids]
        # The common fleet shape: every instance holds exactly gpi GPUs and
        # the mesh splits into whole groups, so every block is gpi x gpi.
        if len(positions) == len(groups) * gpi and all(len(r) == gpi for r in rows):
            outer, block_of, solved = self._uniform_blocks(matrix, rows, gpi)
        else:
            outer, block_of, solved = self._ragged_blocks(matrix, rows, groups)

        n_groups = len(groups)
        placement: Dict[DeviceId, TopologyPosition] = {}
        for row, group_index in maximum_weight_assignment(outer):
            block = block_of[row * n_groups + group_index]
            placement.update(
                self._materialise_inner(
                    per_instance[instance_ids[row]],
                    groups[group_index],
                    None if block < 0 else solved[block],
                )
            )
        # Instances left unmatched (more instances than groups) contribute no
        # placement; groups left unmatched are filled arbitrarily below.
        self._fill_unassigned(placement, devices, positions)
        return placement

    @staticmethod
    def _uniform_blocks(
        matrix: np.ndarray, rows: List[List[int]], gpi: int
    ) -> Tuple[np.ndarray, np.ndarray, List[List[Tuple[int, int]]]]:
        """Inner solves of a uniform fleet, deduped in whole-array steps.

        ``rows[i]`` lists instance i's *gpi* matrix rows, and the columns
        split into whole groups of *gpi*.  Block ``i * n_groups + g`` is
        instance i's rows by group g's columns, flattened row by row, so
        its bytes are the block's ``tobytes()``.  All-zero blocks are
        dropped; the rest are deduped by their bytes through a void view,
        whose ``np.unique`` compares exactly those bytes, and each distinct
        block is solved once, in order of first appearance.

        Returns the outer instance x group weight matrix, each block's
        index into the distinct solves (-1 for an all-zero block) and the
        distinct solves' pairs.
        """
        n_instances = len(rows)
        n_groups = matrix.shape[1] // gpi
        blocks = (
            matrix[np.ravel(rows)]
            .reshape(n_instances, gpi, n_groups, gpi)
            .transpose(0, 2, 1, 3)
            .reshape(n_instances * n_groups, gpi * gpi)
        )
        live = np.flatnonzero(blocks.any(axis=1))
        block_of = np.full(len(blocks), -1)
        outer = np.zeros(len(blocks))
        solved: List[List[Tuple[int, int]]] = []
        if live.size:
            kept = blocks[live]
            keys = kept.view(np.dtype((np.void, kept.itemsize * kept.shape[1])))
            _, first, inverse = np.unique(
                keys.ravel(), return_index=True, return_inverse=True
            )
            weights = np.zeros(len(first))
            solved = [[] for _ in first]
            for distinct in np.argsort(first):
                sub = kept[first[distinct]].reshape(gpi, gpi)
                pairs = solved[distinct] = maximum_weight_assignment(sub)
                # Matched pairs summed in row order.
                weights[distinct] = sum(sub[r, c] for r, c in pairs)
            block_of[live] = inverse
            outer[live] = weights[inverse]
        return outer.reshape(n_instances, n_groups), block_of, solved

    @staticmethod
    def _ragged_blocks(
        matrix: np.ndarray,
        rows: List[List[int]],
        groups: Sequence[Sequence[TopologyPosition]],
    ) -> Tuple[np.ndarray, np.ndarray, List[List[Tuple[int, int]]]]:
        """Inner solves of a fleet whose blocks differ in shape, block by block.

        The result is laid out as :meth:`_uniform_blocks`'; identical
        blocks (equal shape and bytes) share one solve.
        """
        n_groups = len(groups)
        outer = np.zeros((len(rows), n_groups))
        block_of = np.full(len(rows) * n_groups, -1)
        solved: List[List[Tuple[int, int]]] = []
        weights: List[float] = []
        distinct: Dict[Tuple, int] = {}
        for instance_index, instance_rows in enumerate(rows):
            instance_block = matrix[instance_rows]
            start = 0
            for group_index, group in enumerate(groups):
                sub = instance_block[:, start : start + len(group)]
                start += len(group)
                if not sub.any():
                    continue
                key = (sub.shape, sub.tobytes())
                index = distinct.get(key)
                if index is None:
                    index = distinct[key] = len(solved)
                    pairs = maximum_weight_assignment(sub)
                    solved.append(pairs)
                    # Matched pairs summed in row order.
                    weights.append(float(sum(sub[r, c] for r, c in pairs)))
                block_of[instance_index * n_groups + group_index] = index
                outer[instance_index, group_index] = weights[index]
        return outer, block_of, solved

    @staticmethod
    def _materialise_inner(
        instance_devices: Sequence[DeviceId],
        group: Sequence[TopologyPosition],
        pairs: Optional[List[Tuple[int, int]]],
    ) -> Dict[DeviceId, TopologyPosition]:
        """Intra-instance placement from an inner solve's pairs.

        Matched pairs first (in solver row order), then the leftover GPUs
        zipped onto the leftover positions.  ``pairs=None`` marks an
        all-zero block: Kuhn-Munkres on an all-zero matrix yields the
        identity pairing in input order, which the positional zip
        reproduces exactly, so the solve is skipped.
        """
        if pairs is None:
            return dict(zip(instance_devices, group))
        result = {instance_devices[row]: group[col] for row, col in pairs}
        assigned = set(result.values())
        free_devices = [d for d in instance_devices if d not in result]
        free_positions = [p for p in group if p not in assigned]
        for device_id, position in zip(free_devices, free_positions):
            result[device_id] = position
        return result

    def _fill_unassigned(
        self,
        placement: Dict[DeviceId, TopologyPosition],
        devices: Sequence[DeviceId],
        positions: Sequence[TopologyPosition],
    ) -> None:
        """Assign leftover devices to leftover positions (zero-reuse pairs).

        Without zone information this is a plain deterministic zip.  With
        ``zone_of`` each leftover position prefers a device from the zone
        that already dominates its data-parallel pipeline, so fresh
        placements cluster pipelines inside zones instead of striping them
        across the slow inter-zone links.  In ``evacuation_mode`` the zone
        preference is suspended (plain zip again): during a fleet evacuation
        the placement must not fight for zone locality that no longer
        exists.
        """
        assigned_positions = set(placement.values())
        free_positions = [p for p in positions if p not in assigned_positions]
        free_devices = [d for d in devices if d not in placement]
        if self.zone_of is None or self.evacuation_mode:
            for device_id, position in zip(free_devices, free_positions):
                placement[device_id] = position
            return
        # Zone occupancy per data-parallel pipeline from what is already placed.
        pipeline_zones: Dict[int, Dict[str, int]] = {}
        for device_id, position in placement.items():
            zone = self.zone_of(device_id[0])
            votes = pipeline_zones.setdefault(position.data_index, {})
            votes[zone] = votes.get(zone, 0) + 1
        remaining = list(free_devices)
        for position in free_positions:
            if not remaining:
                break
            votes = pipeline_zones.setdefault(position.data_index, {})

            def preference(device_id: DeviceId) -> Tuple:
                """Sort key: majority zone of the pipeline first, then stable id."""
                zone = self.zone_of(device_id[0])
                return (-votes.get(zone, 0), zone, device_id)

            best = min(remaining, key=preference)
            remaining.remove(best)
            placement[best] = position
            zone = self.zone_of(best[0])
            votes[zone] = votes.get(zone, 0) + 1

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _required_bytes(
        self,
        config: ParallelConfig,
        cached_tokens_per_pipeline: Optional[Dict[int, Tuple[int, int]]],
    ) -> float:
        model_bytes = (
            position_model_bytes(self.model, config.pipeline_degree, config.tensor_degree)
            * config.pipeline_degree
            * config.tensor_degree
            * config.data_degree
        )
        cache_bytes = 0.0
        if cached_tokens_per_pipeline:
            for _, (batch_size, cached_tokens) in cached_tokens_per_pipeline.items():
                cache_bytes += (
                    position_cache_bytes(
                        self.model,
                        cached_tokens,
                        batch_size,
                        config.pipeline_degree,
                        config.tensor_degree,
                    )
                    * config.pipeline_degree
                    * config.tensor_degree
                )
        return model_bytes + cache_bytes

    @staticmethod
    def select_batches_to_keep(
        batches: Sequence, capacity: int
    ) -> Tuple[List, List]:
        """Keep the batches with the most decoding progress (Section 3.3).

        When the new configuration supports fewer concurrent requests than
        the old one (``D_{t+1} * B_{t+1} < D_t * B_t``), part of the cached
        results must be discarded; keeping the most-advanced batches
        minimises recomputation.  Returns ``(kept, discarded)``.
        """
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        ordered = sorted(
            batches, key=lambda batch: (-batch.committed_tokens, batch.batch_id)
        )
        return list(ordered[:capacity]), list(ordered[capacity:])
