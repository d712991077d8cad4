"""Vectorized propose sweep: bit-identity against the scalar reference.

The controller batches Algorithm 1's per-config cost evaluation (request
latency, the sustaining filter, the near-tie thresholds) into whole-array
numpy expressions, at every feasible-space size.  None of that may change a
single decision: this suite cross-checks the controller against the scalar
per-config loop in ``tests/oracles/controller.py`` over randomized fleets,
growth budgets and arrival rates -- same winning config, same objective,
same instance delta, and the winning estimate's floats equal bit for bit --
plus the memo/invalidation contract the controller's other caches already
obey.
"""

import random

import pytest

from repro.core.config import ConfigurationSpace
from repro.core.controller import ParallelizationController
from repro.llm.costmodel import LatencyModel
from repro.llm.memory import MemoryModel
from repro.llm.profiler import OfflineProfiler
from repro.llm.spec import get_model

from oracles.controller import MemolessController, ScalarController

MODELS = ("OPT-6.7B", "GPT-20B")


def make_controller(model_name, cls=ParallelizationController, **kwargs):
    model = get_model(model_name)
    latency_model = LatencyModel(model)
    memory_model = MemoryModel(model)
    space = ConfigurationSpace(model, memory_model)
    profiler = OfflineProfiler(latency_model, memory_model)
    return cls(space, profiler, **kwargs)


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

    def test_propose_memo_hits_within_a_round(self):
        controller = make_controller("OPT-6.7B")
        first = controller.propose(36, 3.0, max_instances=40)
        again = controller.propose(36, 3.0, max_instances=40)
        assert again is first  # same frozen decision object from the memo


class TestInvalidation:
    def test_space_mutation_drops_vector_and_propose_memos(self):
        controller = make_controller("OPT-6.7B")
        before = controller.propose(36, 3.0)
        assert controller._vector_memo and controller._propose_memo
        # Shrinking the feasible space (larger reserved migration buffer)
        # must invalidate: the old winner may no longer fit.
        controller.config_space.migration_buffer_bytes = 2e9
        after = controller.propose(36, 3.0)
        assert controller.config_space.fits(after.config)
        scalar = make_controller("OPT-6.7B", ScalarController)
        scalar.config_space.migration_buffer_bytes = 2e9
        assert_same_decision(after, scalar.propose(36, 3.0), "post-invalidation")
        assert before is not after

    def test_profiler_clear_invalidates(self):
        controller = make_controller("OPT-6.7B")
        controller.propose(36, 3.0)
        assert controller._vector_memo
        controller.profiler.clear()
        controller.propose(36, 3.0)
        # The memos were rebuilt against the new generation, not reused.
        assert controller._profiler_generation == controller.profiler.generation
