"""Tests for per-GPU context daemons and the meta-context manager."""

import pytest

from repro.cloud.provider import CloudProvider
from repro.cloud.trace import AvailabilityTrace
from repro.core.config import ParallelConfig
from repro.core.server import SpotServeSystem
from repro.engine.context import CacheContext, ContextDaemon, MetaContextManager, ModelContext
from repro.engine.placement import TopologyPosition
from repro.llm.spec import OPT_6_7B
from repro.sim.engine import Simulator
from repro.workload.request import Request


def model_replica_coverage(manager, pipeline_degree, tensor_degree):
    """Fraction of a (P, M) deployment's positions held by some GPU."""
    present = set()
    for _, daemon in manager.daemons():
        ctx = daemon.model_context
        if ctx is not None and (ctx.pipeline_degree, ctx.tensor_degree) == (
            pipeline_degree,
            tensor_degree,
        ):
            present.add((ctx.position.stage_index, ctx.position.shard_index))
    return len(present) / (pipeline_degree * tensor_degree)


class TestContextDaemon:
    def test_install_model_and_cache_context(self):
        daemon = ContextDaemon()
        daemon.install_model_context(2, 4, TopologyPosition(0, 1, 2))
        assert daemon.model_context == ModelContext(2, 4, TopologyPosition(0, 1, 2))
        daemon.install_cache_context(2, 4, TopologyPosition(0, 1, 2), batch_size=4, cached_tokens=600)
        assert daemon.cache_context == CacheContext(2, 4, TopologyPosition(0, 1, 2), 4, 600)
        assert daemon.model_context == ModelContext(2, 4, TopologyPosition(0, 1, 2))

    def test_clearing_the_cache_keeps_the_model_context(self):
        # A completed batch clears its pipeline's cache contexts in place.
        # The dataplane belongs to a serving system with no fleet, whose
        # event completes the batch.
        simulator = Simulator()
        trace = AvailabilityTrace(name="none", initial_instances=0, events=[], duration=1.0)
        system = SpotServeSystem(simulator, CloudProvider(simulator, trace), OPT_6_7B)
        dataplane, manager = system.dataplane, system.meta_context
        placement = {("inst-0", m): TopologyPosition(0, 0, m) for m in range(2)}
        dataplane.deploy(ParallelConfig(1, 1, 2, 1), placement)
        for device_id, position in placement.items():
            manager.daemon(device_id).install_cache_context(
                1, 2, position, batch_size=4, cached_tokens=600
            )
            assert manager.daemon(device_id).cache_context.cached_tokens == 600
        dataplane.queue.enqueue(Request(arrival_time=0.0, output_tokens=4))
        dataplane.dispatch()
        assert simulator.run() == 1
        assert dataplane.stats.completed_count == 1
        for device_id, position in placement.items():
            daemon = manager.daemon(device_id)
            assert daemon.cache_context is None
            assert daemon.model_context == ModelContext(1, 2, position)


class TestMetaContextManager:
    def test_daemon_created_on_demand(self):
        manager = MetaContextManager()
        daemon = manager.daemon(("inst-0", 0))
        assert manager.daemon(("inst-0", 0)) is daemon
        assert (("inst-0", 0), daemon) in manager.daemons()

    def test_drop_instance_removes_all_gpus(self):
        manager = MetaContextManager()
        for gpu in range(4):
            manager.daemon(("inst-0", gpu))
        manager.daemon(("inst-1", 0))
        manager.drop_instance("inst-0")
        assert [device_id for device_id, _ in manager.daemons()] == [("inst-1", 0)]

    def test_replica_coverage(self):
        manager = MetaContextManager()
        # Install only half of a (P=1, M=2) deployment.
        manager.daemon(("inst-0", 0)).install_model_context(1, 2, TopologyPosition(0, 0, 0))
        assert model_replica_coverage(manager, 1, 2) == pytest.approx(0.5)
        manager.daemon(("inst-0", 1)).install_model_context(1, 2, TopologyPosition(0, 0, 1))
        assert model_replica_coverage(manager, 1, 2) == pytest.approx(1.0)
        # Coverage for a different deployment shape is not satisfied.
        assert model_replica_coverage(manager, 2, 2) == pytest.approx(0.0)
