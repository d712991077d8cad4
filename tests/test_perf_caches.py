"""Cache-correctness tests for the adaptation-round control stack.

The control stack memoises the controller's per-fleet-size sweeps, cost-model
entry points and identical in-round matching solves, and reads a cost
table built once from the configuration space and latency model it was
constructed with.  These tests pin the properties that make the caches
safe: the table follows the inputs it was built from, a memo never leaks a
stale value across rounds, and a fully cached run is byte-identical to one
that never serves a memo.
"""

import pytest

from repro.core.config import ConfigurationSpace, ParallelConfig
from repro.core.controller import ParallelizationController
from repro.core.device_mapper import DeviceMapper
from repro.core.server import SpotServeSystem
from repro.engine.context import MetaContextManager
from repro.engine.placement import mesh_positions
from repro.experiments.runner import run_serving_experiment
from repro.experiments.scenarios import stable_workload_scenario
from repro.llm.costmodel import LatencyModel
from repro.llm.memory import MemoryModel
from repro.llm.spec import GPT_20B, OPT_6_7B

from oracles.controller import MemolessController
from oracles.device_mapper import ReferenceDeviceMapper


def make_controller(model=OPT_6_7B, cls=ParallelizationController, migration_buffer_bytes=0.0):
    latency = LatencyModel(model)
    memory = MemoryModel(model, latency.gpu)
    space = ConfigurationSpace(
        model, memory, gpus_per_instance=4, migration_buffer_bytes=migration_buffer_bytes
    )
    return cls(space, latency)


class TestControllerMemo:
    def test_latency_model_reaches_the_table(self):
        config = ParallelConfig(1, 2, 2, 4)
        # The table's latencies are the latency model's, for the estimate
        # and for the sweep's columns alike.
        controller = make_controller()
        estimate = controller.estimate(config, 0.35)
        assert estimate.execution_latency == controller.latency_model.l_exe(2, 2, 4)
        rows, exec_latency = controller._static_vectors(1)[:2]
        configs = [controller.config_space.config_at(row) for row in rows]
        assert exec_latency[configs.index(config)] == estimate.execution_latency

    def test_fleet_space_sweep_follows_the_buffer(self):
        full_sweep = make_controller(model=GPT_20B)._static_vectors(4)[0]
        # Reserving a huge migration buffer shrinks the feasible space; the
        # sweep for the same fleet size must follow.
        controller = make_controller(model=GPT_20B, migration_buffer_bytes=8 * 1024 ** 3)
        space = controller.config_space
        shrunk_sweep = controller._static_vectors(4)[0]
        assert len(shrunk_sweep) < len(full_sweep)
        assert [space.config_at(row) for row in shrunk_sweep] == space.feasible_configs(4)

    def test_propose_identical_with_and_without_memo(self):
        cached = make_controller()
        uncached = make_controller(cls=MemolessController)
        for instances, rate in [(1, 0.1), (3, 0.35), (6, 1.5), (6, 50.0)]:
            a = cached.propose(instances, rate)
            b = uncached.propose(instances, rate)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.config == b.config
                assert a.objective == b.objective
                assert a.instance_delta == b.instance_delta


class TestFeasibleConfigCache:
    def test_cached_enumeration_is_stable_and_copied(self):
        space = ConfigurationSpace(GPT_20B, gpus_per_instance=4)
        first = space.feasible_configs(4)
        second = space.feasible_configs(4)
        assert first == second
        # Callers may mutate their copy without changing the next call's.
        first.clear()
        assert space.feasible_configs(4) == second


def _install(meta, devices, config):
    positions = mesh_positions(
        config.data_degree, config.pipeline_degree, config.tensor_degree
    )
    for device, position in zip(devices, positions):
        meta.daemon(device).install_model_context(
            config.pipeline_degree, config.tensor_degree, position
        )


class TestMapperMatchesReference:
    def devices(self, n, gpus=4):
        return [(f"inst-{i:02d}", g) for i in range(n) for g in range(gpus)]

    def test_context_change_between_rounds_is_observed(self):
        """A mapper reused across rounds must not leak round N's weights into N+1."""
        meta = MetaContextManager()
        devices = self.devices(6)
        config = ParallelConfig(2, 3, 4, 8)
        _install(meta, devices, config)
        mapper = DeviceMapper(GPT_20B)
        first = mapper.map_devices(meta, devices, config)
        assert first.reused_bytes > 0
        # The fleet loses all its context (e.g. every instance restarted).
        for device in devices:
            meta.drop_instance(device[0])
        second = mapper.map_devices(meta, devices, config)
        assert second.reused_bytes == pytest.approx(0.0)

    def test_reshaped_mapping_matches_reference(self):
        meta = MetaContextManager()
        devices = self.devices(6)
        old = ParallelConfig(2, 3, 4, 8)
        new = ParallelConfig(1, 2, 8, 8)
        _install(meta, devices, old)
        mapped = DeviceMapper(GPT_20B).map_devices(meta, devices, new)
        reference = ReferenceDeviceMapper(GPT_20B).map_devices(meta, devices, new)
        assert mapped.placement == reference.placement
        assert list(mapped.placement) == list(reference.placement)
        assert mapped.reused_bytes == reference.reused_bytes
        assert mapped.required_bytes == reference.required_bytes

    def test_stateless_fleet_mapping_matches_reference(self):
        # Stateless instances take the skip-the-solve path; the placement
        # must equal the one a Kuhn-Munkres solve of every block produces.
        meta = MetaContextManager()
        devices = self.devices(6)
        config = ParallelConfig(2, 3, 4, 8)
        mapped = DeviceMapper(GPT_20B).map_devices(meta, devices, config)
        reference = ReferenceDeviceMapper(GPT_20B).map_devices(meta, devices, config)
        assert mapped.placement == reference.placement
        assert list(mapped.placement) == list(reference.placement)


class NoTable(dict):
    """A pipeline timing table that keeps no entry: every batch is timed afresh."""

    def __setitem__(self, key, value):
        pass


class UncachedSpotServe(SpotServeSystem):
    """SpotServe whose controller, cost model and pipelines never serve a memo."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        assert self.autoscaler is None  # nothing else holds the controller
        self.controller = MemolessController(
            self.config_space,
            self.latency_model,
            slo_latency=self.options.slo_latency,
        )
        # The caches are instance attributes over the class methods.
        for name in LatencyModel._CACHED_ENTRY_POINTS:
            delattr(self.latency_model, name)
        assert self.latency_model.cache_info() == {}
        build = self.dataplane._build
        #: Every pipeline built, to check that none kept a timing.
        self.built_pipelines = []

        def build_tableless(*args):
            pipelines = build(*args)
            for pipeline in pipelines:
                pipeline.timings = NoTable()
            self.built_pipelines.extend(pipelines)
            return pipelines

        self.dataplane._build = build_tableless


class TestCachedRunsAreByteIdentical:
    def test_golden_scenario_digest_identical_with_caches_off(self):
        systems = []

        def run(system_cls):
            def build(*args, **kwargs):
                systems.append(system_cls(*args, **kwargs))
                return systems[-1]

            scenario = stable_workload_scenario("OPT-6.7B", "AS", duration=400.0)
            return run_serving_experiment(
                build,
                scenario.model_name,
                scenario.trace,
                scenario.arrival_process(),
                duration=scenario.duration,
                drain_time=200.0,
                options=scenario.options(),
            )

        cached = run(SpotServeSystem)
        uncached = run(UncachedSpotServe)
        assert cached.stats.summary_text() == uncached.stats.summary_text()
        assert cached.total_cost == uncached.total_cost
        assert cached.completed_requests > 0
        assert systems[1].built_pipelines
        assert not any(pipeline.timings for pipeline in systems[1].built_pipelines)
