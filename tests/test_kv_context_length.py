"""An interrupted batch's KV context is sized from its own prompt.

A batch that has committed ``c`` tokens of a ``S_in``-token prompt holds
``S_in + c`` tokens of KV cache.  The dataplane records that length in the
context daemons when it interrupts the batch with its cache kept, and the
reconfiguration passes it to the device mapper and the migration planner.
These tests serve 256-token prompts, not the 512-token default, and check
the bytes each layer weighs and moves against ``MemoryModel``'s per-GPU KV
size for ``256 + c`` tokens.
"""

import pytest

from repro.core.device_mapper import DeviceMapping
from repro.engine.placement import TopologyPosition
from repro.llm.memory import MemoryModel
from repro.llm.spec import OPT_6_7B
from repro.sim.engine import Simulator
from test_arrival_take_in import saturated_system

from oracles.device_mapper import reuse_weight

PROMPT = 256


@pytest.fixture
def decoding_system():
    """A pinned fleet whose three pipelines are all mid-decode at t=3.

    Each pipeline's progress is committed, so every batch has a cache
    worth keeping.
    """
    system = saturated_system(Simulator, [], input_tokens=PROMPT)
    system.run(until=3.0)
    pipelines = system.dataplane.pipelines
    assert len(pipelines) == 3
    for pipeline in pipelines:
        pipeline.commit_progress(system.simulator.now)
        batch = pipeline.current_batch
        assert batch.input_tokens == PROMPT
        assert 0 < batch.committed_tokens < batch.output_tokens
    return system


def kv_bytes_per_gpu(system, batch):
    """The oracle: one position's KV bytes for the batch's own length."""
    config = system.current_config
    return MemoryModel(OPT_6_7B).kv_cache_bytes_per_gpu(
        config.pipeline_degree,
        config.tensor_degree,
        batch.size,
        PROMPT + batch.committed_tokens,
    )


def test_reconfiguration_requires_the_prompt_plus_committed_tokens(decoding_system):
    pipelines = decoding_system.dataplane.pipelines
    inheritance = {p.pipeline_index: p.pipeline_index for p in pipelines}
    requirements = decoding_system.transitions._cache_requirements(inheritance)
    assert requirements == {
        p.pipeline_index: (
            p.pipeline_index,
            p.current_batch.size,
            PROMPT + p.current_batch.committed_tokens,
        )
        for p in pipelines
    }


def test_kept_cache_is_weighed_for_the_prompt_plus_committed_tokens(decoding_system):
    system = decoding_system
    config = system.current_config
    held = {
        p.pipeline_index: (dict(p.assignment.devices), p.current_batch)
        for p in system.dataplane.pipelines
    }
    system.dataplane.interrupt_all(preserve_cache=True)
    for index, (devices, batch) in held.items():
        elsewhere = {index: index + 1}  # A pipeline that inherits nothing here.
        for position, device in devices.items():
            context = system.meta_context.daemon(device).cache_context
            assert context.cached_tokens == PROMPT + batch.committed_tokens
            cache_weight = reuse_weight(
                system.model, system.meta_context, device, position, config, {index: index}
            ) - reuse_weight(system.model, system.meta_context, device, position, config, elsewhere)
            assert cache_weight == pytest.approx(kv_bytes_per_gpu(system, batch), rel=1e-12)


def test_kept_cache_is_migrated_for_the_prompt_plus_committed_tokens(decoding_system):
    system = decoding_system
    config = system.current_config
    pipelines = system.dataplane.pipelines
    inheritance = {p.pipeline_index: p.pipeline_index for p in pipelines}
    requirements = system.transitions._cache_requirements(inheritance)
    batches = {p.pipeline_index: p.current_batch for p in pipelines}
    system.dataplane.interrupt_all(preserve_cache=True)
    # Every pipeline's devices move to the next pipeline's positions, so
    # each kept cache moves whole to devices that hold none of it.
    rotated = {}
    for pipeline in pipelines:
        new_index = (pipeline.pipeline_index + 1) % config.data_degree
        for position, device in pipeline.assignment.devices.items():
            rotated[device] = TopologyPosition(
                new_index, position.stage_index, position.shard_index
            )
    mapping = DeviceMapping(config=config, placement=rotated)
    plan = system.migration_planner.plan(system.meta_context, mapping, requirements)
    moved = {}
    for step in plan.steps:
        for transfer in step.transfers:
            moved[transfer.tag] = moved.get(transfer.tag, 0.0) + transfer.size_bytes
    positions = config.pipeline_degree * config.tensor_degree
    assert moved == pytest.approx(
        {
            f"cache:pipeline{index}": kv_bytes_per_gpu(system, batch) * positions
            for index, batch in batches.items()
        },
        rel=1e-12,
    )
