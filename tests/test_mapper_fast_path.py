"""Equivalence tests for the sparsified, zone-decomposed map phase.

The map-phase fast path rests on three claims, each pinned here:

* the vectorized weight matrix is **bitwise** equal to the scalar
  ``reuse_weight`` of ``tests/oracles/device_mapper.py``, cell by cell;
* per-zone / per-component decomposition only fires when its dominance
  condition holds (no positive edge crosses a component boundary) and then
  matches the global solve's total matched weight exactly;
* the mapper end to end -- sparsified flat solve, decomposed components,
  memoised hierarchical inner solves -- produces the same placements and
  the same reused-byte totals as the scalar reference in
  ``tests/oracles/device_mapper.py`` under randomized fleet churn, and a
  mapper reused across rounds keeps no state: it maps exactly as a fresh
  one does.

The hierarchical phase's block pass is pinned through a wrapper on the
module-global solver: each distinct non-zero (instance, group) block is
solved once, blocks that differ in one cell are solved apart, all-zero
blocks never reach the solver, and the placement equals the oracle's on
fleets that hold cache contexts too.

A fourth claim pins the reuse-bound skip: solving the hierarchical
matching first and the flat one only when the bound cannot rule it out
adopts exactly what solving both did (the oracle's ``TwoSolveDeviceMapper``),
and the flat matching runs exactly in the rounds where the guard fails.
The greedy ablation has no hierarchy: it solves the flat matching alone.
"""

import copy
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ParallelConfig
from repro.core.device_mapper import DeviceMapper
from repro.engine.context import MetaContextManager
from repro.engine.placement import mesh_positions
from repro.llm.spec import GPT_20B, OPT_6_7B
from repro.matching.bipartite import positive_components
from repro.matching.hungarian import (
    assignment_weight,
    greedy_assignment,
    maximum_weight_assignment,
)

from oracles.device_mapper import ReferenceDeviceMapper, TwoSolveDeviceMapper, reuse_weight

REPO_ROOT = Path(__file__).resolve().parents[1]


def random_matrix(rng, rows, cols, sparsity=0.5, integers=False):
    matrix = rng.random((rows, cols))
    matrix[rng.random((rows, cols)) < sparsity] = 0.0
    if integers:
        matrix = np.floor(matrix * 100)
    return matrix


class TestGreedySkipsZeroEdges:
    def test_no_zero_weight_pairs_are_matched(self):
        rng = np.random.default_rng(23)
        weights = random_matrix(rng, 10, 8, sparsity=0.8)
        pairs = greedy_assignment(weights)
        assert all(weights[row, col] > 0 for row, col in pairs)

    def test_matched_weight_equals_dense_enumeration(self):
        """Skipping zero edges cannot change the greedy matched weight."""

        def dense_greedy(weights):
            weights = np.asarray(weights, dtype=float)
            edges = [
                (weights[r, c], r, c)
                for r in range(weights.shape[0])
                for c in range(weights.shape[1])
            ]
            edges.sort(key=lambda item: (-item[0], item[1], item[2]))
            used_rows, used_cols, result = set(), set(), []
            for _, r, c in edges:
                if r in used_rows or c in used_cols:
                    continue
                used_rows.add(r)
                used_cols.add(c)
                result.append((r, c))
            return result

        rng = np.random.default_rng(29)
        for _ in range(50):
            weights = random_matrix(
                rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)), sparsity=0.6
            )
            sparse = greedy_assignment(weights)
            dense = dense_greedy(weights)
            assert assignment_weight(weights, sparse) == assignment_weight(
                weights, dense
            )
            # The sparse result is exactly the dense result minus zero edges.
            assert sparse == [(r, c) for r, c in dense if weights[r, c] > 0]

    def test_all_zero_matrix_matches_nothing(self):
        assert greedy_assignment(np.zeros((4, 6))) == []


class TestPositiveComponents:
    @pytest.mark.parametrize("seed", range(15))
    def test_dominance_condition_holds(self, seed):
        """No positive weight ever crosses a component boundary."""
        rng = np.random.default_rng(seed)
        weights = random_matrix(
            rng, int(rng.integers(1, 20)), int(rng.integers(1, 20)), sparsity=0.85
        )
        components = positive_components(weights)
        for i, (rows_a, cols_a) in enumerate(components):
            for j, (rows_b, cols_b) in enumerate(components):
                if i == j:
                    continue
                assert not weights[np.ix_(rows_a, cols_b)].any()
                assert not weights[np.ix_(rows_b, cols_a)].any()

    @pytest.mark.parametrize("seed", range(15))
    def test_components_cover_every_positive_cell(self, seed):
        rng = np.random.default_rng(100 + seed)
        weights = random_matrix(
            rng, int(rng.integers(1, 20)), int(rng.integers(1, 20)), sparsity=0.85
        )
        components = positive_components(weights)
        covered = np.zeros_like(weights, dtype=bool)
        all_rows, all_cols = [], []
        for rows, cols in components:
            covered[np.ix_(rows, cols)] = True
            all_rows.extend(rows)
            all_cols.extend(cols)
        assert covered[weights > 0].all()
        # Components are disjoint on both sides.
        assert len(all_rows) == len(set(all_rows))
        assert len(all_cols) == len(set(all_cols))
        # Vertices without a positive edge belong to no component.
        assert set(all_rows) == set(np.flatnonzero(weights.any(axis=1)).tolist())
        assert set(all_cols) == set(np.flatnonzero(weights.any(axis=0)).tolist())

    @pytest.mark.parametrize("seed", range(15))
    def test_decomposed_solve_matches_global_solve(self, seed):
        """When the dominance condition holds, solving per component is exact.

        Integer weights keep the totals exactly representable, so the
        equality is exact, not approximate.
        """
        rng = np.random.default_rng(200 + seed)
        weights = random_matrix(
            rng,
            int(rng.integers(1, 16)),
            int(rng.integers(1, 16)),
            sparsity=0.85,
            integers=True,
        )
        global_total = assignment_weight(weights, maximum_weight_assignment(weights))
        decomposed_total = 0.0
        for rows, cols in positive_components(weights):
            sub = weights[np.ix_(rows, cols)]
            decomposed_total += assignment_weight(sub, maximum_weight_assignment(sub))
        assert decomposed_total == global_total


def devices_for(num_instances, gpus_per_instance=4, prefix="inst"):
    return [
        (f"{prefix}-{i:02d}", g)
        for i in range(num_instances)
        for g in range(gpus_per_instance)
    ]


def random_fleet_state(rng, model):
    """Random meta-context state: some instances stateful, some fresh."""
    meta = MetaContextManager()
    n_instances = int(rng.integers(2, 9))
    devices = devices_for(n_instances)
    old = ParallelConfig(
        int(rng.choice([1, 2])),
        int(rng.choice([1, 2, 3])),
        int(rng.choice([2, 4, 8])),
        8,
    )
    positions = mesh_positions(old.data_degree, old.pipeline_degree, old.tensor_degree)
    for device, position in zip(devices, positions):
        if rng.random() < 0.8:
            meta.daemon(device).install_model_context(
                old.pipeline_degree, old.tensor_degree, position
            )
        if rng.random() < 0.4:
            meta.daemon(device).install_cache_context(
                old.pipeline_degree,
                old.tensor_degree,
                position,
                batch_size=int(rng.integers(1, 9)),
                cached_tokens=int(rng.integers(1, 700)),
            )
    return meta, devices, old


def random_round(rng, meta, devices, old):
    """Apply one random fleet delta, then pick a round's inputs."""
    delta = rng.integers(0, 4)
    if delta == 0 and len({d[0] for d in devices}) > 2:
        # Preemption: drop a random instance and its contexts.
        victim = sorted({d[0] for d in devices})[
            int(rng.integers(0, len({d[0] for d in devices})))
        ]
        meta.drop_instance(victim)
        devices = [d for d in devices if d[0] != victim]
    elif delta == 1:
        # Acquisition: a fresh (stateless) instance joins.
        index = len({d[0] for d in devices}) + int(rng.integers(10, 90))
        devices = devices + devices_for(1, prefix=f"new-{index:02d}")
    # delta in (2, 3): fleet unchanged this round.
    while True:
        new = ParallelConfig(
            int(rng.choice([1, 2])),
            int(rng.choice([1, 2, 3])),
            int(rng.choice([2, 4])),
            8,
        )
        if new.num_gpus <= len(devices):
            return devices, new


def zone_by_ordinal(instance_id):
    return f"z{int(instance_id.split('-')[1]) % 3}"


def assert_matrix_matches_reuse_weight(mapper, meta, devices, new, inheritance):
    """Every cell of the round's matrix equals ``reuse_weight`` bitwise."""
    positions = mesh_positions(new.data_degree, new.pipeline_degree, new.tensor_degree)
    matrix, row_of, col_of = mapper._weight_lookup(
        meta, devices, positions, new, inheritance
    )
    assert matrix.shape == (len(devices), len(positions))
    for device in devices:
        for position in positions:
            reference = reuse_weight(mapper.model, meta, device, position, new, inheritance)
            cell = float(matrix[row_of[device], col_of[position]])
            # Bitwise: exact equality *and* no -0.0 creeping in.
            assert cell == reference
            assert np.signbit(cell) == np.signbit(reference)
    return matrix


def twin_cache_fleet(caches=((3, 300), (3, 300))):
    """Two old pipelines of (D=2, P=2, M=2), each holding a batch's cache.

    ``caches[d]`` is old pipeline d's ``(batch_size, cached_tokens)``, or
    ``None`` for no cache.  Every device holds its model slice.  With the
    default, both old pipelines share each (P, M, stage, shard, batch,
    tokens) cache signature and differ only in their data index.
    """
    meta = MetaContextManager()
    devices = devices_for(2)
    old = ParallelConfig(2, 2, 2, 8)
    for device, position in zip(
        devices, mesh_positions(old.data_degree, old.pipeline_degree, old.tensor_degree)
    ):
        daemon = meta.daemon(device)
        daemon.install_model_context(old.pipeline_degree, old.tensor_degree, position)
        cache = caches[position.data_index]
        if cache is not None:
            daemon.install_cache_context(
                old.pipeline_degree,
                old.tensor_degree,
                position,
                batch_size=cache[0],
                cached_tokens=cache[1],
            )
    return meta, devices


class TestWeightMatrixBitIdentity:
    @pytest.mark.parametrize(
        "inheritance",
        [
            pytest.param(None, id="no-map"),
            pytest.param({0: 1, 1: 0}, id="swapped"),
            pytest.param({0: 0}, id="old-pipeline-missing"),
            pytest.param({0: 2, 1: -1}, id="target-outside-mesh"),
        ],
    )
    @pytest.mark.parametrize(
        "new",
        [ParallelConfig(2, 2, 2, 8), ParallelConfig(2, 1, 4, 8), ParallelConfig(1, 3, 2, 8)],
        ids=lambda c: f"D{c.data_degree}P{c.pipeline_degree}M{c.tensor_degree}",
    )
    def test_cache_signature_on_two_old_pipelines(self, new, inheritance):
        meta, devices = twin_cache_fleet()
        mapper = DeviceMapper(GPT_20B)
        matrix = assert_matrix_matches_reuse_weight(mapper, meta, devices, new, inheritance)
        model_only, _ = twin_cache_fleet(caches=(None, None))
        without_cache = assert_matrix_matches_reuse_weight(
            mapper, model_only, devices, new, inheritance
        )
        # Each old pipeline's cache lands in exactly the new pipelines that
        # inherit it: devices 0 and 4 hold the same slice of old pipelines
        # 0 and 1.
        cells = new.pipeline_degree * new.tensor_degree
        for row, old_index in ((0, 0), (4, 1)):
            for d in range(new.data_degree):
                block = slice(d * cells, (d + 1) * cells)
                inherits = inheritance is None or inheritance.get(old_index) == d
                moved = (matrix[row, block] != without_cache[row, block]).any()
                assert moved == inherits

    @pytest.mark.parametrize(
        "caches",
        [
            pytest.param(((3, 300), (5, 300)), id="batch-differs"),
            pytest.param(((3, 300), (3, 200)), id="tokens-differ"),
            pytest.param(((3, 300), (3, 0)), id="no-tokens"),
            pytest.param(((3, 300), None), id="one-cache"),
        ],
    )
    def test_cache_signatures_that_differ_in_one_field(self, caches):
        meta, devices = twin_cache_fleet(caches)
        for inheritance in (None, {0: 1, 1: 0}):
            assert_matrix_matches_reuse_weight(
                DeviceMapper(OPT_6_7B), meta, devices, ParallelConfig(2, 2, 2, 8), inheritance
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_vectorized_matrix_equals_scalar_weights_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        model = GPT_20B if seed % 2 else OPT_6_7B
        meta, devices, old = random_fleet_state(rng, model)
        new = ParallelConfig(
            int(rng.choice([1, 2])),
            int(rng.choice([1, 2, 3])),
            int(rng.choice([2, 4, 8])),
            8,
        )
        inheritance = None
        if rng.random() < 0.5:
            inheritance = {
                d: int(rng.integers(0, new.data_degree))
                for d in range(old.data_degree)
            }
        assert_matrix_matches_reuse_weight(
            DeviceMapper(model), meta, devices, new, inheritance
        )


class TestFastPathEquivalence:
    """Randomized fleet deltas over rounds: reused mapper == fresh mapper == reference."""

    @pytest.mark.parametrize("seed", range(8))
    def test_reused_mapper_matches_fresh_each_round(self, seed):
        rng = np.random.default_rng(seed)
        model = GPT_20B if seed % 2 else OPT_6_7B
        meta, devices, old = random_fleet_state(rng, model)
        zone_of = zone_by_ordinal if seed % 3 == 0 else None

        reused = DeviceMapper(model, zone_of=zone_of)  # maps every round
        reference = ReferenceDeviceMapper(model, zone_of=zone_of)
        for round_index in range(6):
            devices, new = random_round(rng, meta, devices, old)
            inheritance = None
            if rng.random() < 0.5:
                inheritance = {
                    d: int(rng.integers(0, new.data_degree))
                    for d in range(old.data_degree)
                }
            fresh = DeviceMapper(model, zone_of=zone_of)
            reused_mapping = reused.map_devices(meta, devices, new, inheritance)
            fresh_mapping = fresh.map_devices(meta, devices, new, inheritance)
            ref_mapping = reference.map_devices(meta, devices, new, inheritance)
            # Reused vs fresh: bit-identical, down to dict order.
            assert reused_mapping.placement == fresh_mapping.placement
            assert list(reused_mapping.placement) == list(fresh_mapping.placement)
            assert reused_mapping.reused_bytes == fresh_mapping.reused_bytes
            # The hierarchical matching -- the branch that decides the golden
            # digests -- must be bit-identical between the mapper and the
            # scalar reference (the flat branch may tie-break differently
            # after sparsification; its total is checked below).
            positions = mesh_positions(
                new.data_degree, new.pipeline_degree, new.tensor_degree
            )
            lookup = reused._weight_lookup(meta, devices, positions, new, inheritance)
            fast_hier = reused._hierarchical_matching(lookup, devices, positions)
            ref_hier = reference.hierarchical_matching(
                meta, devices, positions, new, inheritance
            )
            assert fast_hier == ref_hier
            assert list(fast_hier) == list(ref_hier)
            # Reuse accounting: both flat solves are optimal matchings of the
            # same matrix, so the totals agree (up to FP summation order of
            # equal-total matchings).
            assert reused_mapping.required_bytes == ref_mapping.required_bytes
            assert reused_mapping.reused_bytes == pytest.approx(
                ref_mapping.reused_bytes, rel=1e-12, abs=1e-6
            )

    def test_map_devices_leaves_the_mapper_unchanged(self):
        """The mapper keeps no state: a call is a function of its arguments."""
        meta, devices, old = self.stateful_fleet()
        for zone_of in (None, zone_by_ordinal):
            mapper = DeviceMapper(GPT_20B, zone_of=zone_of)
            for new in (old, ParallelConfig(1, 2, 8, 8)):
                positions = mesh_positions(
                    new.data_degree, new.pipeline_degree, new.tensor_degree
                )
                matrix, _, _ = mapper._weight_lookup(meta, devices, positions, new, None)
                assert matrix.any()  # the flat matching has components to solve
                before = copy.deepcopy(vars(mapper))
                mapper.map_devices(meta, devices, new)
                assert vars(mapper) == before

    @pytest.mark.parametrize("seed", range(4))
    def test_greedy_ablation_matches_reference(self, seed):
        """The greedy matcher solves the same matrices as the graph reference."""
        rng = np.random.default_rng(100 + seed)
        model = GPT_20B if seed % 2 else OPT_6_7B
        meta, devices, old = random_fleet_state(rng, model)
        zone_of = zone_by_ordinal if seed % 2 == 0 else None
        mapper = DeviceMapper(model, use_optimal_matching=False, zone_of=zone_of)
        reference = ReferenceDeviceMapper(
            model, use_optimal_matching=False, zone_of=zone_of
        )
        for round_index in range(4):
            devices, new = random_round(rng, meta, devices, old)
            mapping = mapper.map_devices(meta, devices, new)
            ref_mapping = reference.map_devices(meta, devices, new)
            assert list(mapping.placement.items()) == list(
                ref_mapping.placement.items()
            )
            assert mapping.reused_bytes == ref_mapping.reused_bytes

    @staticmethod
    def stateful_fleet(model=GPT_20B, num_instances=6):
        meta = MetaContextManager()
        devices = devices_for(num_instances)
        config = ParallelConfig(2, 3, 4, 8)
        positions = mesh_positions(
            config.data_degree, config.pipeline_degree, config.tensor_degree
        )
        for device, position in zip(devices, positions):
            meta.daemon(device).install_model_context(
                config.pipeline_degree, config.tensor_degree, position
            )
        return meta, devices, config

    def test_evacuation_mode_disables_decomposition(self, monkeypatch):
        import repro.core.device_mapper as dm

        calls = []
        original = dm.positive_components

        def counting(weights):
            calls.append(weights.shape)
            return original(weights)

        monkeypatch.setattr(dm, "positive_components", counting)
        meta, devices, config = self.stateful_fleet()
        mapper = DeviceMapper(GPT_20B)
        mapper.map_devices(meta, devices, config)
        assert calls  # decomposition ran in normal mode
        calls.clear()
        mapper.evacuation_mode = True
        mapping = mapper.map_devices(meta, devices, config)
        assert not calls  # suspended during evacuation
        reference = ReferenceDeviceMapper(GPT_20B)
        reference.evacuation_mode = True
        assert mapping.placement == reference.map_devices(meta, devices, config).placement

    def test_stateful_fleet_matches_reference(self):
        meta, devices, config = self.stateful_fleet(model=OPT_6_7B)
        a = DeviceMapper(OPT_6_7B).map_devices(meta, devices, config)
        b = ReferenceDeviceMapper(OPT_6_7B).map_devices(meta, devices, config)
        assert a.placement == b.placement
        assert a.reused_bytes == b.reused_bytes


def recording_solver(monkeypatch):
    """Wrap the mapper's module-global solver; return the list of matrices it saw."""
    import repro.core.device_mapper as dm

    solved = []
    solve = dm.maximum_weight_assignment

    def recording(weights):
        solved.append(np.array(weights, copy=True))
        return solve(weights)

    monkeypatch.setattr(dm, "maximum_weight_assignment", recording)
    return solved


def distinct_blocks(matrix, row_of, devices, positions, gpus_per_instance):
    """The distinct non-zero (instance, group) blocks, by shape and bytes."""
    per_instance = {}
    for device in devices:
        per_instance.setdefault(device[0], []).append(row_of[device])
    keys = set()
    for instance_id in sorted(per_instance):
        block = matrix[per_instance[instance_id]]
        for start in range(0, len(positions), gpus_per_instance):
            sub = block[:, start : start + gpus_per_instance]
            if sub.any():
                keys.add((sub.shape, sub.tobytes()))
    return keys


def cache_fleet(model=OPT_6_7B, num_instances=6):
    """Every device holds its (2, 3, 4) model slice; pipeline 0's also hold caches.

    Pipeline 0's devices hold a batch's cache, stage by stage, so its
    instances' blocks differ from pipeline 1's only where the cache adds
    weight.
    """
    meta, devices, config = TestFastPathEquivalence.stateful_fleet(model, num_instances)
    for device, position in zip(
        devices,
        mesh_positions(config.data_degree, config.pipeline_degree, config.tensor_degree),
    ):
        if position.data_index == 0:
            meta.daemon(device).install_cache_context(
                config.pipeline_degree,
                config.tensor_degree,
                position,
                batch_size=4,
                cached_tokens=300 + 40 * position.stage_index,
            )
    return meta, devices, config


class TestBlockPass:
    """The hierarchical phase solves each distinct non-zero block once, in one pass."""

    @pytest.mark.parametrize("seed", range(8))
    def test_one_solve_per_distinct_nonzero_block_plus_the_outer(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        model = GPT_20B if seed % 2 else OPT_6_7B
        meta, devices, old = random_fleet_state(rng, model)
        mapper = DeviceMapper(model)
        solved = recording_solver(monkeypatch)
        for _ in range(6):
            devices, new = random_round(rng, meta, devices, old)
            positions = mesh_positions(
                new.data_degree, new.pipeline_degree, new.tensor_degree
            )
            lookup = mapper._weight_lookup(meta, devices, positions, new, None)
            expected = distinct_blocks(lookup[0], lookup[1], devices, positions, 4)
            solved.clear()
            mapper._hierarchical_matching(lookup, devices, positions)
            *inner, outer = solved
            assert len(inner) == len(expected)
            assert {(m.shape, m.tobytes()) for m in inner} == expected
            # All-zero blocks never reach the solver.
            assert all(m.any() for m in inner)
            assert outer.shape[1] == -(-len(positions) // 4)

    def test_a_repeating_uniform_fleet_solves_one_block(self, monkeypatch):
        """A (2, 2, 4) fleet remapped to its own mesh repeats one block.

        OPT-6.7B's 32 layers split evenly over two stages, so every
        instance's block with a group of its own stage holds the same
        bytes: one inner solve for its four non-zero blocks, then the
        outer one.
        """
        meta = MetaContextManager()
        devices = devices_for(4)
        config = ParallelConfig(2, 2, 4, 8)
        positions = mesh_positions(2, 2, 4)
        for device, position in zip(devices, positions):
            meta.daemon(device).install_model_context(2, 4, position)
        mapper = DeviceMapper(OPT_6_7B)
        lookup = mapper._weight_lookup(meta, devices, positions, config, None)
        solved = recording_solver(monkeypatch)
        placement = mapper._hierarchical_matching(lookup, devices, positions)
        assert [m.shape for m in solved] == [(4, 4), (4, 4)]
        assert placement == dict(zip(devices, positions))

    def test_blocks_differing_in_one_later_cell_are_solved_apart(self, monkeypatch):
        """Two instances' blocks equal in every row but the last are two solves."""
        devices = [("a", 0), ("a", 1), ("b", 0), ("b", 1)]
        positions = mesh_positions(1, 2, 2)
        matrix = np.zeros((4, 4))
        matrix[0:2, 0:2] = [[5.0, 0.0], [0.0, 3.0]]
        matrix[2:4, 0:2] = [[5.0, 0.0], [0.0, 4.0]]
        lookup = (
            matrix,
            {device: row for row, device in enumerate(devices)},
            {position: col for col, position in enumerate(positions)},
        )
        mapper = DeviceMapper(OPT_6_7B, gpus_per_instance=2)
        solved = recording_solver(monkeypatch)
        placement = mapper._hierarchical_matching(lookup, devices, positions)
        *inner, outer = solved
        assert [m.tolist() for m in inner] == [
            [[5.0, 0.0], [0.0, 3.0]],
            [[5.0, 0.0], [0.0, 4.0]],
        ]
        # The outer matching sees each block's own weight: b's is heavier.
        assert outer.tolist() == [[8.0, 0.0], [9.0, 0.0]]
        assert placement[("b", 1)] == positions[1]

    @pytest.mark.parametrize(
        "new",
        [
            ParallelConfig(2, 3, 4, 8),
            ParallelConfig(1, 3, 8, 8),
            ParallelConfig(2, 2, 4, 8),
            ParallelConfig(1, 2, 4, 8),
            ParallelConfig(1, 3, 2, 8),
        ],
        ids=lambda c: f"D{c.data_degree}P{c.pipeline_degree}M{c.tensor_degree}",
    )
    @pytest.mark.parametrize("inheritance", [None, {0: 1, 1: 0}], ids=["no-map", "swapped"])
    def test_cache_fleet_matches_the_oracle(self, new, inheritance):
        meta, devices, _ = cache_fleet()
        mapper = DeviceMapper(OPT_6_7B, zone_of=zone_by_ordinal)
        reference = ReferenceDeviceMapper(OPT_6_7B, zone_of=zone_by_ordinal)
        positions = mesh_positions(new.data_degree, new.pipeline_degree, new.tensor_degree)
        lookup = mapper._weight_lookup(meta, devices, positions, new, inheritance)
        fast = mapper._hierarchical_matching(lookup, devices, positions)
        expected = reference.hierarchical_matching(
            meta, devices, positions, new, inheritance
        )
        assert list(fast.items()) == list(expected.items())

    def test_mesh_positions_are_one_immutable_tuple_per_shape(self):
        positions = mesh_positions(2, 3, 4)
        assert isinstance(positions, tuple)
        assert mesh_positions(2, 3, 4) is positions
        assert mesh_positions(2, 4, 3) is not positions

    def test_memoised_model_rows_are_read_only(self):
        import repro.core.device_mapper as dm

        meta, devices, config = cache_fleet()
        DeviceMapper(OPT_6_7B).map_devices(meta, devices, ParallelConfig(1, 2, 8, 8))
        row = dm._model_row(
            OPT_6_7B.num_layers, OPT_6_7B.layer_param_bytes, (3, 4, 0, 0), 1, 2, 8
        )
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 1.0
        assert dm._model_row(
            OPT_6_7B.num_layers, OPT_6_7B.layer_param_bytes, (3, 4, 0, 0), 1, 2, 8
        ) is row


#: (model, pipeline inheritance, zone_of, optimal matcher) for the skip suite.
SKIP_GRID = list(
    itertools.product((OPT_6_7B, GPT_20B), (False, True), (False, True), (True, False))
)

#: Fleets per grid cell, and map rounds per fleet.
SKIP_FLEETS = 3
SKIP_ROUNDS = 5


def skip_case_id(cell):
    model, inherits, zoned, optimal = cell
    return "-".join(
        (
            model.name,
            "inherit" if inherits else "no_inherit",
            "zoned" if zoned else "unzoned",
            "optimal" if optimal else "greedy",
        )
    )


def exact_sum(values):
    return sum((Fraction(float(v)) for v in values), Fraction(0))


def map_skip_rounds(cell_index):
    """One grid cell's rounds: the mapper and the two-solve oracle, side by side.

    Each record holds both mappings, the exact reuse bound
    min(sum of row maxima, sum of column maxima) as a ``Fraction``, whether
    every weight is an integer, the hierarchical placement's reuse, the
    oracle placement's exact reuse, and how often the mapper ran
    ``_flat_matching``.
    """
    model, inherits, zoned, optimal = SKIP_GRID[cell_index]
    zone_of = zone_by_ordinal if zoned else None
    records = []
    for fleet in range(SKIP_FLEETS):
        rng = np.random.default_rng(500 + SKIP_FLEETS * cell_index + fleet)
        meta, devices, old = random_fleet_state(rng, model)
        mapper = DeviceMapper(model, use_optimal_matching=optimal, zone_of=zone_of)
        oracle = TwoSolveDeviceMapper(
            model, use_optimal_matching=optimal, zone_of=zone_of
        )
        flat_calls = []
        flat_matching = mapper._flat_matching

        def counting_flat(*args, flat_matching=flat_matching, flat_calls=flat_calls):
            flat_calls.append(1)
            return flat_matching(*args)

        mapper._flat_matching = counting_flat
        for _ in range(SKIP_ROUNDS):
            devices, new = random_round(rng, meta, devices, old)
            inheritance = None
            if inherits:
                inheritance = {
                    d: int(rng.integers(0, new.data_degree))
                    for d in range(old.data_degree)
                }
            flat_calls.clear()
            mapping = mapper.map_devices(meta, devices, new, inheritance)
            flat_runs = len(flat_calls)
            expected = oracle.map_devices(meta, devices, new, inheritance)
            positions = mesh_positions(
                new.data_degree, new.pipeline_degree, new.tensor_degree
            )
            lookup = oracle._weight_lookup(meta, devices, positions, new, inheritance)
            matrix, row_of, col_of = lookup
            hierarchical = oracle._hierarchical_matching(lookup, devices, positions)
            records.append(
                {
                    "mapping": mapping,
                    "expected": expected,
                    "flat_runs": flat_runs,
                    "integral": all(float(w).is_integer() for w in matrix.ravel()),
                    "bound": min(
                        exact_sum(matrix.max(axis=1)), exact_sum(matrix.max(axis=0))
                    ),
                    "hierarchical_reuse": oracle._placement_reuse(lookup, hierarchical),
                    "expected_exact_reuse": exact_sum(
                        matrix[row_of[device], col_of[position]]
                        for device, position in expected.placement.items()
                    ),
                }
            )
    return records


def guard_holds(record):
    """The skip's three conditions, restated over exact sums."""
    return (
        record["integral"]
        and record["bound"] < 2**53
        and Fraction(record["hierarchical_reuse"]) == record["bound"]
    )


def skip_case(record):
    """``skip``, ``integral_miss`` or ``fractional``."""
    if not record["integral"]:
        return "fractional"
    return "skip" if guard_holds(record) else "integral_miss"


@pytest.fixture(scope="module")
def skip_sweep():
    """Every grid cell's round records, computed once for the module."""
    return [map_skip_rounds(index) for index in range(len(SKIP_GRID))]


class TestReuseBoundSkip:
    """Hierarchical first, flat only when the bound cannot rule it out."""

    @pytest.mark.parametrize(
        "cell_index", range(len(SKIP_GRID)), ids=[skip_case_id(c) for c in SKIP_GRID]
    )
    def test_adopts_what_solving_both_adopted(self, skip_sweep, cell_index):
        for record in skip_sweep[cell_index]:
            mapping, expected = record["mapping"], record["expected"]
            assert list(mapping.placement.items()) == list(expected.placement.items())
            assert mapping.reused_bytes.hex() == expected.reused_bytes.hex()
            assert mapping.required_bytes == expected.required_bytes

    @pytest.mark.parametrize(
        "cell_index", range(len(SKIP_GRID)), ids=[skip_case_id(c) for c in SKIP_GRID]
    )
    def test_no_placement_reuses_more_than_the_bound(self, skip_sweep, cell_index):
        for record in skip_sweep[cell_index]:
            assert record["expected_exact_reuse"] <= record["bound"]
            if record["integral"]:
                # Integral sums below 2^53 are exact, so the float agrees.
                assert Fraction(record["expected"].reused_bytes) == record[
                    "expected_exact_reuse"
                ]

    @pytest.mark.parametrize(
        "cell_index", range(len(SKIP_GRID)), ids=[skip_case_id(c) for c in SKIP_GRID]
    )
    def test_flat_matching_runs_exactly_where_the_guard_fails(
        self, skip_sweep, cell_index
    ):
        optimal = SKIP_GRID[cell_index][3]
        for record in skip_sweep[cell_index]:
            skipped = optimal and guard_holds(record)
            assert record["flat_runs"] == (0 if skipped else 1)

    def test_the_sweep_covers_every_case(self, skip_sweep):
        """Skips, integral misses the flat placement won, and fractional rounds."""
        cases = {"skip": 0, "integral_miss": 0, "fractional": 0}
        flat_won_a_miss = False
        optimal_cells = [
            records for cell, records in zip(SKIP_GRID, skip_sweep) if cell[3]
        ]
        for record in itertools.chain.from_iterable(optimal_cells):
            case = skip_case(record)
            cases[case] += 1
            if case == "integral_miss":
                flat_won_a_miss |= (
                    record["expected"].reused_bytes > record["hierarchical_reuse"]
                )
        assert all(cases.values()), cases
        assert flat_won_a_miss
        assert sum(cases.values()) == len(optimal_cells) * SKIP_FLEETS * SKIP_ROUNDS

    @pytest.mark.parametrize(
        "matrix, reuse, reaches",
        [
            pytest.param([[3.0, 1.0], [1.0, 2.0]], 5.0, True, id="on_the_bound"),
            pytest.param([[3.0, 1.0], [1.0, 2.0]], 4.0, False, id="below_the_bound"),
            pytest.param([[0.5, 0.0], [0.0, 1.0]], 1.5, False, id="fractional"),
            pytest.param(
                [[2.0**52, 0.0], [0.0, 2.0**52 - 1]], 2.0**53 - 1, True, id="below_2^53"
            ),
            pytest.param([[2.0**52, 0.0], [0.0, 2.0**52]], 2.0**53, False, id="at_2^53"),
        ],
    )
    def test_guard_conditions(self, matrix, reuse, reaches):
        # Row maxima and column maxima both sum to the bound in each matrix.
        assert DeviceMapper._reaches_reuse_bound(np.array(matrix), reuse) is reaches


class TestPerfCheckMapGuard:
    """run_perf.py --check guards the map phase's ms/call per scenario."""

    @staticmethod
    def report(map_ms, round_ms=5.0, requests=50000.0):
        return {
            "adaptation_round_ms": round_ms,
            "sim_requests_per_sec": requests,
            "phases": {"map": {"seconds": 1.0, "calls": 10, "ms_per_call": map_ms}},
        }

    def baseline(self, tmp_path, map_ms):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "scenarios": {
                        "s": {"adaptation_round_ms": 10.0, "map_ms_per_call": map_ms}
                    }
                }
            )
        )
        return path

    def test_map_regression_fails_the_check(self, run_perf, tmp_path):
        baseline = self.baseline(tmp_path, 4.0)
        # 20 ms/call vs committed 4.0 at 2x tolerance: regression.
        assert (
            run_perf.check_regression(
                {"s": self.report(map_ms=20.0)}, baseline, max_regression=2.0
            )
            == 1
        )

    def test_map_within_limit_passes(self, run_perf, tmp_path):
        baseline = self.baseline(tmp_path, 4.0)
        assert (
            run_perf.check_regression(
                {"s": self.report(map_ms=7.9)}, baseline, max_regression=2.0
            )
            == 0
        )

    def test_scenario_without_map_calls_skips_the_guard(self, run_perf, tmp_path):
        baseline = self.baseline(tmp_path, 4.0)
        report = self.report(map_ms=0.0)
        report["phases"] = {}
        assert run_perf.check_regression({"s": report}, baseline, 2.0) == 0
