"""Tests for stateful inference recovery (the JIT interruption arranger)."""

import pytest

from repro.core.config import ParallelConfig
from repro.core.interruption import InterruptionArranger
from repro.llm.costmodel import LatencyModel
from repro.llm.spec import GPT_20B
from repro.workload.request import Request

from oracles import batching as batching_oracle


@pytest.fixture()
def arranger():
    return InterruptionArranger(LatencyModel(GPT_20B))


def make_batch(size=4, output_tokens=128, committed=0):
    batch = batching_oracle.build(
        [Request(arrival_time=0.0, output_tokens=output_tokens) for _ in range(size)]
    )
    if committed:
        batch.commit_tokens(committed)
    return batch


CONFIG = ParallelConfig(1, 3, 4, 4)


class TestPreemptionArrangement:
    def test_tokens_fit_in_grace_minus_migration(self, arranger):
        batch = make_batch()
        now, deadline, migration = 100.0, 130.0, 5.0
        arrangement = arranger.arrange_preemption(batch, CONFIG, now, deadline, migration)
        iteration = arranger.latency_model.decode_iteration_time(3, 4, 4, batch.input_tokens)
        assert arrangement.kind == "preemption"
        assert arrangement.tokens_to_decode >= 0
        assert arrangement.tokens_to_decode * iteration < (deadline - now) - migration
        # Either the whole batch finishes, or one more iteration would not fit.
        if arrangement.tokens_to_decode < batch.remaining_tokens:
            assert (arrangement.tokens_to_decode + 1) * iteration >= (deadline - now) - migration
        assert arrangement.stop_time <= deadline

    def test_no_time_left_stops_immediately(self, arranger):
        batch = make_batch(committed=10)
        arrangement = arranger.arrange_preemption(batch, CONFIG, 100.0, 101.0, 5.0)
        assert arrangement.tokens_to_decode == 0
        assert arrangement.stop_time == pytest.approx(100.0)

    def test_migration_only_when_it_pays_off(self, arranger):
        # Barely any progress and a large migration cost: plain rerouting wins.
        batch = make_batch(committed=0)
        arrangement = arranger.arrange_preemption(batch, CONFIG, 100.0, 102.0, migration_time=50.0)
        assert not arrangement.migrate_cache
        # Plenty of progress: keeping the cache is worth the migration.
        advanced = make_batch(committed=100)
        arrangement = arranger.arrange_preemption(advanced, CONFIG, 100.0, 130.0, migration_time=5.0)
        assert arrangement.migrate_cache

    def test_tokens_capped_at_remaining_work(self, arranger):
        batch = make_batch(output_tokens=4, committed=2)
        arrangement = arranger.arrange_preemption(batch, CONFIG, 0.0, 1000.0, 1.0)
        assert arrangement.tokens_to_decode <= 2

    def test_idle_pipeline_arrangement(self, arranger):
        arrangement = arranger.arrange_preemption(None, CONFIG, 10.0, 40.0, 5.0)
        assert arrangement.tokens_to_decode == 0
        assert arrangement.stop_time == 10.0


class TestAcquisitionArrangement:
    def test_decodes_just_enough_to_cover_initialisation(self, arranger):
        batch = make_batch()
        now, ready = 100.0, 140.0
        arrangement = arranger.arrange_acquisition(batch, CONFIG, now, ready, migration_time=2.0)
        iteration = arranger.latency_model.decode_iteration_time(3, 4, 4, batch.input_tokens)
        assert arrangement.kind == "acquisition"
        if arrangement.tokens_to_decode < batch.remaining_tokens:
            assert arrangement.tokens_to_decode * iteration >= (ready - now) - iteration
        assert (arrangement.tokens_to_decode - 1) * iteration < (ready - now)

    def test_ready_in_the_past_stops_now(self, arranger):
        batch = make_batch()
        arrangement = arranger.arrange_acquisition(batch, CONFIG, 100.0, 90.0, 2.0)
        assert arrangement.tokens_to_decode == 0

    def test_preemption_maximises_acquisition_minimises(self, arranger):
        """Same time budget: the preemption arrangement squeezes in at most as
        many iterations as would fit, the acquisition arrangement runs at
        least enough to cover the budget, so preemption <= acquisition + 1."""
        batch_a = make_batch()
        batch_b = make_batch()
        budget = 20.0
        pre = arranger.arrange_preemption(batch_a, CONFIG, 0.0, budget, 0.0)
        acq = arranger.arrange_acquisition(batch_b, CONFIG, 0.0, budget, 0.0)
        assert pre.tokens_to_decode <= acq.tokens_to_decode + 1


class _FixedIterationModel:
    """Stub latency model with a constant per-iteration decode time."""

    def __init__(self, iteration=0.5):
        self.iteration = iteration

    def decode_iteration_time(self, pipeline_degree, tensor_degree, batch_size, context_length=0):
        return self.iteration


class TestHandComputedArrangements:
    """Section 4.2 arithmetic pinned with a fixed 0.5 s iteration time."""

    @pytest.fixture()
    def fixed(self):
        return InterruptionArranger(_FixedIterationModel(0.5))

    def test_preemption_fills_grace_minus_migration(self, fixed):
        # Grace window 10 s, migration 3.2 s -> decode budget 6.8 s ->
        # S = floor(6.8 / 0.5) = 13 iterations, stopping at 100 + 6.5 = 106.5.
        batch = make_batch()
        arrangement = fixed.arrange_preemption(batch, CONFIG, 100.0, 110.0, 3.2)
        assert arrangement.tokens_to_decode == 13
        assert arrangement.stop_time == pytest.approx(106.5)
        # Preserved work 13 * 0.5 = 6.5 s > T_mig = 3.2 s: migrating pays off.
        assert arrangement.migrate_cache

    def test_preemption_reroutes_when_migration_dominates(self, fixed):
        # Budget 10 - 9.8 = 0.2 s -> S = 0; preserved work 0 < T_mig.
        batch = make_batch()
        arrangement = fixed.arrange_preemption(batch, CONFIG, 100.0, 110.0, 9.8)
        assert arrangement.tokens_to_decode == 0
        assert not arrangement.migrate_cache

    def test_acquisition_covers_initialisation(self, fixed):
        # T^+ = 4.3 s -> S = ceil(4.3 / 0.5) = 9 iterations, stop at 104.5.
        batch = make_batch()
        arrangement = fixed.arrange_acquisition(batch, CONFIG, 100.0, 104.3, 2.0)
        assert arrangement.tokens_to_decode == 9
        assert arrangement.stop_time == pytest.approx(104.5)
        assert arrangement.migrate_cache

    def test_tokens_capped_by_remaining_work(self, fixed):
        # Only 4 tokens of work left: a huge budget still stops at 4.
        batch = make_batch(output_tokens=4)
        arrangement = fixed.arrange_preemption(batch, CONFIG, 0.0, 1000.0, 1.0)
        assert arrangement.tokens_to_decode == 4


class TestFaultTolerance:
    def test_overlapping_deadlines_take_earliest(self, arranger):
        assert arranger.merge_overlapping_deadlines([150.0, 130.0, 170.0]) == 130.0
        assert arranger.merge_overlapping_deadlines([]) is None

    def test_overlapping_deadlines_skip_missing_entries(self, arranger):
        # Idle pipelines report no deadline (None); they must not mask the
        # earliest live one, and an all-idle set merges to no deadline.
        assert arranger.merge_overlapping_deadlines([None, 150.0, None, 130.0]) == 130.0
        assert arranger.merge_overlapping_deadlines([None, None]) is None

    def test_is_early_preemption_classification(self, arranger):
        # No announced deadline (e.g. an on-demand death): never "early".
        assert not arranger.is_early_preemption(None, 100.0)
        # Reclaim clearly before the announced deadline: early.
        assert arranger.is_early_preemption(110.0, 100.0)
        # Exactly on time, or within floating-point tolerance: not early.
        assert not arranger.is_early_preemption(110.0, 110.0)
        assert not arranger.is_early_preemption(110.0, 110.0 - 5e-10)
        # Late reclaims are not early either.
        assert not arranger.is_early_preemption(110.0, 110.5)
