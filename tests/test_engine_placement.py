"""Tests for device-mesh placement math and the scalar context-overlap reference."""

import pickle
import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.provider import CloudProvider
from repro.core.server import SpotServeSystem
from repro.engine.placement import (
    TopologyPosition,
    mesh_positions,
    position_cache_bytes,
    position_model_bytes,
    shard_interval,
    stage_layer_range,
)
from repro.faults.injector import FaultInjector
from repro.llm.spec import GPT_20B, OPT_6_7B, get_model
from repro.sim.engine import Simulator
from repro.sim.network import Transfer

from oracles.device_mapper import cache_context_overlap_bytes, model_context_overlap_bytes

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench import workloads  # noqa: E402


class TestTopology:
    def test_mesh_positions_count_and_uniqueness(self):
        positions = mesh_positions(2, 3, 4)
        assert len(positions) == 24
        assert len(set(positions)) == 24

    def test_negative_coordinates_rejected(self):
        for coordinates in [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]:
            with pytest.raises(ValueError):
                TopologyPosition(*coordinates)

    def test_invalid_mesh_rejected(self):
        with pytest.raises(ValueError):
            mesh_positions(0, 1, 1)

    def test_stage_layer_ranges_partition_the_model(self):
        total = 0.0
        for stage in range(3):
            start, end = stage_layer_range(44, 3, stage)
            total += end - start
        assert total == pytest.approx(44.0)

    def test_shard_intervals_partition_unit(self):
        total = sum(
            shard_interval(8, shard)[1] - shard_interval(8, shard)[0] for shard in range(8)
        )
        assert total == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            stage_layer_range(44, 3, 3)
        with pytest.raises(ValueError):
            shard_interval(4, 4)


@dataclass(frozen=True, order=True)
class DataclassPosition:
    """The dataclass ``TopologyPosition`` was, kept to compare the record with."""

    data_index: int
    stage_index: int
    shard_index: int

    def __str__(self) -> str:
        return f"(d={self.data_index}, p={self.stage_index}, m={self.shard_index})"


class TestPositionRecord:
    """``TopologyPosition`` is a named tuple that behaves as the dataclass did."""

    def test_assignment_refused(self):
        position = TopologyPosition(0, 1, 2)
        with pytest.raises(AttributeError):
            position.stage_index = 3
        with pytest.raises(AttributeError):
            position.extra = 1

    def test_hash_equals_the_dataclass_hash(self):
        for d, p, m in [(0, 0, 0), (0, 1, 2), (3, 0, 7), (12, 5, 1)]:
            position = TopologyPosition(d, p, m)
            assert hash(position) == hash((d, p, m)) == hash(DataclassPosition(d, p, m))

    def test_order_repr_and_str_equal_the_dataclass(self):
        rng = random.Random(7)
        coordinates = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(200)]
        records = sorted(TopologyPosition(*c) for c in coordinates)
        olds = sorted(DataclassPosition(*c) for c in coordinates)
        assert [tuple(r) for r in records] == [
            (q.data_index, q.stage_index, q.shard_index) for q in olds
        ]
        for record, old in zip(records, olds):
            assert repr(record) == repr(old).replace("DataclassPosition", "TopologyPosition")
            assert str(record) == str(old)

    def test_set_order_follows_the_hash(self):
        coordinates = [(d, p, m) for d in range(3) for p in range(4) for m in range(8)]
        records = {TopologyPosition(*c) for c in coordinates}
        olds = {DataclassPosition(*c) for c in coordinates}
        assert [tuple(q) for q in records] == [
            (q.data_index, q.stage_index, q.shard_index) for q in olds
        ]

    def test_survives_a_pickle_round_trip(self):
        positions = mesh_positions(2, 3, 4)
        restored = pickle.loads(pickle.dumps(positions))
        assert restored == positions
        assert all(type(position) is TopologyPosition for position in restored)


def record_dunder_frames():
    """Python frames of the records' dunders entered by a short churn run.

    Runs perfbench's churn workload (seed 0, one chaos period), wired as
    ``perfbench/replay.py`` wires it, under ``sys.setprofile`` and counts
    the calls of a ``__hash__`` or ``__eq__`` whose ``self`` is a
    :class:`TopologyPosition` and of an ``__init__`` whose ``self`` is a
    :class:`Transfer`.  Returns the counts and the plans built.
    """
    work = workloads.build("churn", 0, 1)
    scenario = work.scenario
    sim = Simulator()
    provider = CloudProvider(
        sim,
        None,
        zones=scenario.zones,
        allow_spot_requests=work.allow_spot_requests,
        fault_injector=FaultInjector(scenario.fault_plan),
    )
    arrivals = work.arrivals.count_arrivals(scenario.duration)
    system = SpotServeSystem(
        sim,
        provider,
        get_model(scenario.model_name),
        options=scenario.options(),
        initial_arrival_rate=max(arrivals / max(scenario.duration, 1.0), 1e-3),
    )
    system.submit_arrival_process(work.arrivals, scenario.duration)
    system.initialize()
    watched = {
        "__hash__": TopologyPosition,
        "__eq__": TopologyPosition,
        "__init__": Transfer,
    }
    frames = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            name = frame.f_code.co_name
            owner = watched.get(name)
            if owner is not None and isinstance(frame.f_locals.get("self"), owner):
                frames[f"{owner.__name__}.{name}"] += 1

    sys.setprofile(profile)
    try:
        system.run(until=scenario.duration + work.drain_time)
    finally:
        sys.setprofile(None)
    return frames, system.migration_planner.plan_memo_misses


class TestNoPythonLevelRecordFrames:
    """Positions hash and compare, and transfers build, in C.

    A churn replay hashed positions ~130,000 times and built ~20,000
    transfers per run while both were dataclasses; each of those calls ran
    a generated Python method.  A record type that gains a Python-level
    ``__hash__``, ``__eq__`` or ``__init__`` again fails here.
    """

    def test_churn_plans_enter_no_record_dunder_frame(self):
        frames, plans = record_dunder_frames()
        assert plans > 0
        assert frames == Counter()


class TestModelOverlap:
    def test_identical_position_full_reuse(self):
        position = TopologyPosition(0, 1, 2)
        overlap = model_context_overlap_bytes(GPT_20B, 2, 4, position, 2, 4, position)
        assert overlap == pytest.approx(position_model_bytes(GPT_20B, 2, 4))

    def test_disjoint_stages_zero_reuse(self):
        old = TopologyPosition(0, 0, 0)
        new = TopologyPosition(0, 1, 0)
        assert model_context_overlap_bytes(GPT_20B, 2, 1, old, 2, 1, new) == 0.0

    def test_disjoint_shards_zero_reuse(self):
        old = TopologyPosition(0, 0, 0)
        new = TopologyPosition(0, 0, 1)
        assert model_context_overlap_bytes(GPT_20B, 1, 2, old, 1, 2, new) == 0.0

    def test_data_parallel_index_is_irrelevant_for_model_context(self):
        old = TopologyPosition(0, 0, 0)
        new_same = TopologyPosition(0, 0, 0)
        new_other = TopologyPosition(1, 0, 0)
        a = model_context_overlap_bytes(GPT_20B, 2, 4, old, 2, 4, new_same)
        b = model_context_overlap_bytes(GPT_20B, 2, 4, old, 2, 4, new_other)
        assert a == pytest.approx(b)

    def test_paper_figure4b_example(self):
        """Figure 4b: u1 holds (stage 0, shard 1 of 2) under (P=2, M=2); it
        overlaps the most model context with the first-stage positions of the
        new (P=3, M=1) configuration."""
        u1_position = TopologyPosition(0, 0, 1)
        v_first_stage = TopologyPosition(0, 0, 0)
        v_last_stage = TopologyPosition(0, 2, 0)
        first = model_context_overlap_bytes(OPT_6_7B, 2, 2, u1_position, 3, 1, v_first_stage)
        last = model_context_overlap_bytes(OPT_6_7B, 2, 2, u1_position, 3, 1, v_last_stage)
        assert first > 0
        assert last == 0.0

    @given(
        old_p=st.sampled_from([1, 2, 4]),
        old_m=st.sampled_from([1, 2, 4, 8]),
        new_p=st.sampled_from([1, 2, 3, 4]),
        new_m=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_overlap_bounded_by_both_slices(self, old_p, old_m, new_p, new_m):
        old = TopologyPosition(0, old_p - 1, old_m - 1)
        new = TopologyPosition(0, new_p - 1, new_m - 1)
        overlap = model_context_overlap_bytes(GPT_20B, old_p, old_m, old, new_p, new_m, new)
        assert overlap <= position_model_bytes(GPT_20B, old_p, old_m) + 1.0
        assert overlap <= position_model_bytes(GPT_20B, new_p, new_m) + 1.0
        assert overlap >= 0

    @given(
        old_p=st.sampled_from([1, 2, 4]),
        new_p=st.sampled_from([1, 2, 3]),
        m=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_total_overlap_over_new_mesh_equals_old_slice(self, old_p, new_p, m):
        """Summed over every new position, an old slice is fully accounted for
        (the new mesh covers the whole model)."""
        old = TopologyPosition(0, 0, 0)
        total = sum(
            model_context_overlap_bytes(GPT_20B, old_p, m, old, new_p, m, new)
            for new in mesh_positions(1, new_p, m)
        )
        assert total == pytest.approx(position_model_bytes(GPT_20B, old_p, m), rel=1e-6)


class TestCacheOverlap:
    def test_requires_inheritance(self):
        position = TopologyPosition(0, 0, 0)
        with_inherit = cache_context_overlap_bytes(
            GPT_20B, 100, 4, 2, 2, position, 2, 2, position, inherits_requests=True
        )
        without = cache_context_overlap_bytes(
            GPT_20B, 100, 4, 2, 2, position, 2, 2, position, inherits_requests=False
        )
        assert with_inherit > 0
        assert without == 0.0

    def test_zero_tokens_zero_cache(self):
        position = TopologyPosition(0, 0, 0)
        assert cache_context_overlap_bytes(GPT_20B, 0, 4, 2, 2, position, 2, 2, position) == 0.0

    def test_scales_with_tokens_and_batch(self):
        position = TopologyPosition(0, 0, 0)
        base = cache_context_overlap_bytes(GPT_20B, 100, 1, 2, 2, position, 2, 2, position)
        more_tokens = cache_context_overlap_bytes(GPT_20B, 200, 1, 2, 2, position, 2, 2, position)
        more_batch = cache_context_overlap_bytes(GPT_20B, 100, 4, 2, 2, position, 2, 2, position)
        assert more_tokens == pytest.approx(2 * base)
        assert more_batch == pytest.approx(4 * base)

    def test_position_cache_bytes_partition(self):
        total = GPT_20B.kv_cache_bytes(100, 4)
        per_position = position_cache_bytes(GPT_20B, 100, 4, 2, 8)
        assert per_position * 16 == pytest.approx(total)
        assert position_cache_bytes(GPT_20B, 0, 4, 2, 8) == 0.0
