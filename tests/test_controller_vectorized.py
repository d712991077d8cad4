"""Vectorized propose sweep: bit-identity against the scalar reference.

The controller reads a cost table built once (the configuration space's
rows, masked per fleet size, with vectorised ``l_exe`` columns) and batches
Algorithm 1's per-config cost evaluation (request latency, the sustaining
filter, the near-tie thresholds) into whole-array numpy expressions.  None
of that may change a single decision: this suite cross-checks the
controller against the scalar per-config loop in
``tests/oracles/controller.py`` -- which enumerates and profiles through the
scalar oracles, not the table -- over randomized fleets, growth budgets and
arrival rates: same winning config, same objective, same instance delta,
and the winning estimate's floats equal bit for bit.
"""

import random

import numpy as np
import pytest

from repro.core.config import ConfigurationSpace, ParallelConfig
from repro.core.controller import ParallelizationController
from repro.llm.costmodel import DEFAULT_INPUT_LENGTH, DEFAULT_OUTPUT_LENGTH, LatencyModel
from repro.llm.memory import MemoryModel
from repro.llm.spec import get_model

from oracles import costmodel as costmodel_oracle
from oracles.controller import MemolessController, ScalarController

MODELS = ("OPT-6.7B", "GPT-20B")


def make_controller(
    model_name, cls=ParallelizationController, migration_buffer_bytes=0.0, **kwargs
):
    model = get_model(model_name)
    latency_model = LatencyModel(model)
    memory_model = MemoryModel(model)
    space = ConfigurationSpace(
        model, memory_model, migration_buffer_bytes=migration_buffer_bytes
    )
    return cls(space, latency_model, **kwargs)


def assert_same_decision(a, b, context=""):
    if a is None or b is None:
        assert a is None and b is None, f"feasibility mismatch {context}"
        return
    assert a.config == b.config, context
    assert a.objective == b.objective, context
    assert a.instance_delta == b.instance_delta, context
    # Bit-identical floats, not approx: the digest contract depends on it.
    assert a.estimate.request_latency == b.estimate.request_latency, context
    assert a.estimate.execution_latency == b.estimate.execution_latency, context
    assert a.estimate.throughput == b.estimate.throughput, context
    assert a.estimate.num_instances == b.estimate.num_instances, context


class TestVectorizedMatchesScalar:
    @pytest.mark.parametrize("model_name", MODELS)
    def test_randomized_fleets_and_rates(self, model_name):
        vectorized = make_controller(model_name)
        scalar = make_controller(model_name, ScalarController)
        rng = random.Random(hash(model_name) & 0xFFFF)
        for trial in range(150):
            available = rng.randint(1, 40)
            extra = rng.choice([0, 0, 0, 2, 4, 8])
            rate = rng.choice(
                [
                    0.0,
                    1e-3,
                    rng.uniform(0.01, 1.0),
                    rng.uniform(1.0, 30.0),
                    rng.uniform(30.0, 300.0),
                ]
            )
            a = vectorized.propose(available, rate, max_instances=available + extra)
            b = scalar.propose(available, rate, max_instances=available + extra)
            assert_same_decision(
                a, b, f"model={model_name} N={available}+{extra} rate={rate}"
            )

    @pytest.mark.parametrize("slo", [None, 12.0])
    @pytest.mark.parametrize("model_name", MODELS)
    def test_small_feasible_spaces_match(self, model_name, slo):
        """Fleets whose feasible space holds only a handful of configs."""
        vectorized = make_controller(model_name, slo_latency=slo)
        scalar = make_controller(model_name, ScalarController, slo_latency=slo)
        small = [
            fleet
            for fleet in range(1, 8)
            if 0 < len(vectorized.config_space.feasible_configs(fleet)) < 64
        ]
        assert small
        for fleet in small:
            for rate in (0.0, 1e-3, 0.05, 0.4, 2.0, 9.0, 40.0, 300.0):
                assert_same_decision(
                    vectorized.propose(fleet, rate),
                    scalar.propose(fleet, rate),
                    f"model={model_name} slo={slo} N={fleet} rate={rate}",
                )

    def test_slo_filter_matches(self):
        for slo in (5.0, 12.0, 60.0):
            vectorized = make_controller("OPT-6.7B", slo_latency=slo)
            scalar = make_controller("OPT-6.7B", ScalarController, slo_latency=slo)
            rng = random.Random(int(slo))
            for _ in range(40):
                available = rng.randint(1, 36)
                rate = rng.uniform(0.01, 20.0)
                assert_same_decision(
                    vectorized.propose(available, rate),
                    scalar.propose(available, rate),
                    f"slo={slo} N={available} rate={rate}",
                )

    def test_memoize_disabled_still_matches(self):
        memoless = make_controller("OPT-6.7B", MemolessController)
        scalar = make_controller("OPT-6.7B", ScalarController)
        for available, rate in [(36, 4.2), (36, 4.2), (12, 0.7), (3, 19.0), (1, 0.2)]:
            assert_same_decision(
                memoless.propose(available, rate),
                scalar.propose(available, rate),
                f"N={available} rate={rate}",
            )

    def test_zero_fleet_is_infeasible_on_both_paths(self):
        vectorized = make_controller("OPT-6.7B")
        scalar = make_controller("OPT-6.7B", ScalarController)
        assert vectorized.propose(0, 1.0) is None
        assert scalar.propose(0, 1.0) is None


class TestVectorPathEngages:
    def test_large_fleet_uses_the_vector_cache(self):
        controller = make_controller("OPT-6.7B")
        fleet = 36
        controller.propose(fleet, 3.0)
        assert fleet in controller._vector_memo

    def test_small_space_uses_the_vector_cache(self):
        controller = make_controller("OPT-6.7B")
        fleet = 1
        assert len(controller.config_space.feasible_configs(fleet)) < 64
        decision = controller.propose(fleet, 0.2)
        assert decision is not None
        assert fleet in controller._vector_memo


class TestCostTable:
    @pytest.mark.parametrize("model_name", MODELS)
    def test_table_columns_match_oracle_profiles(self, model_name):
        """Every row's latency and throughput equal the scalar profile's."""
        controller = make_controller(model_name)
        scalar = make_controller(model_name, ScalarController)
        space = controller.config_space
        rows, exec_latency, throughput, batch, data = controller._static_vectors(40)
        assert len(rows) == len(space.feasible_configs(40))
        for i, row in enumerate(rows):
            config = space.config_at(row)
            assert (batch[i], data[i]) == (config.batch_size, config.data_degree)
            assert (exec_latency[i], throughput[i]) == scalar._static(config)
            assert controller._static(config) == scalar._static(config)

    def test_columns_equal_per_config_profiles(self):
        """The table's columns reproduce the scalar per-config profile."""
        controller = make_controller("OPT-6.7B")
        space = controller.config_space
        configs = [
            ParallelConfig(d, p, m, b)
            for d in (1, 3)
            for p in (1, 2, 5)
            for m in (1, 4, 8)
            for b in (1, 8)
        ]
        configs = [config for config in configs if space.fits(config)]
        assert len(configs) >= 24
        rows, exec_latency, throughput = controller._static_vectors(30)[:3]
        row_of = {space.config_at(row): i for i, row in enumerate(rows)}
        for config in configs:
            expected = costmodel_oracle.profile(
                controller.latency_model,
                config.data_degree,
                config.pipeline_degree,
                config.tensor_degree,
                config.batch_size,
            )
            assert controller._static(config) == expected, config
            i = row_of[config]
            assert (exec_latency[i], throughput[i]) == expected, config

    def test_shape_outside_the_space_raises(self):
        """A config whose shape does not fit in memory is not in the table.

        Every config the controller estimates comes from its own space, so
        such a shape is a defect, not a reason to profile on the side.
        """
        controller = make_controller("GPT-20B")
        config = ParallelConfig(2, 1, 1, 8)
        assert not controller.config_space.fits(config)
        with pytest.raises(KeyError):
            controller.estimate(config, 0.35)

    def test_table_is_at_the_paper_lengths(self):
        controller = make_controller("OPT-6.7B")
        expected = controller.latency_model.l_exe(
            1, 4, 2, DEFAULT_INPUT_LENGTH, DEFAULT_OUTPUT_LENGTH
        )
        assert controller._static(ParallelConfig(1, 1, 4, 2))[0] == expected

    def test_entries_are_positive(self):
        latency, throughput = make_controller("OPT-6.7B")._static(ParallelConfig(1, 2, 2, 4))
        assert latency > 0
        assert throughput > 0

    def test_data_parallel_replicas_scale_throughput(self):
        controller = make_controller("OPT-6.7B")
        one = controller.estimate(ParallelConfig(1, 1, 4, 4), 0.0)
        two = controller.estimate(ParallelConfig(2, 1, 4, 4), 0.0)
        assert two.throughput == pytest.approx(2.0 * one.throughput)
        # Execution latency of a single batch does not change with replicas.
        assert two.execution_latency == one.execution_latency

    def test_non_positive_latency_has_infinite_throughput(self):
        class FreeShapes(LatencyModel):
            """Latencies of 0 for 4-way tensor shards, 2 s for the rest."""

            def l_exe_many(self, shapes, *lengths):
                return np.array([0.0 if m == 4 else 2.0 for _, m, _ in shapes])

        model = get_model("OPT-6.7B")
        controller = ParallelizationController(
            ConfigurationSpace(model, MemoryModel(model)), FreeShapes(model)
        )
        assert controller._static(ParallelConfig(1, 1, 4, 4)) == (0.0, float("inf"))
        assert controller._static(ParallelConfig(1, 1, 8, 4)) == (2.0, 2.0)
        rows, exec_latency, throughput = controller._static_vectors(16)[:3]
        free = exec_latency == 0.0
        assert free.any() and (~free).any()
        assert (throughput[free] == float("inf")).all()
        assert (throughput[~free] < float("inf")).all()

    def test_buffered_space_matches_scalar(self):
        """A space built with a larger reserved migration buffer."""
        controller = make_controller("OPT-6.7B", migration_buffer_bytes=2e9)
        scalar = make_controller("OPT-6.7B", ScalarController, migration_buffer_bytes=2e9)
        roomy = make_controller("OPT-6.7B")
        assert len(controller._static_vectors(36)[0]) < len(roomy._static_vectors(36)[0])
        after = controller.propose(36, 3.0)
        assert controller.config_space.fits(after.config)
        assert_same_decision(after, scalar.propose(36, 3.0), "buffered space")

    def test_invalidate_drops_memos_not_the_table(self):
        controller = make_controller("OPT-6.7B")
        before = controller.propose(36, 3.0)
        assert 36 in controller._vector_memo
        controller.invalidate()
        assert not controller._vector_memo
        after = controller.propose(36, 3.0)
        assert after is not before
        assert_same_decision(after, before, "after invalidate")
