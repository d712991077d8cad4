"""Tests for the simulated inference pipeline (token-level decoding progress)."""

import pytest

from repro.engine.context import ContextDaemon
from repro.engine.pipeline import InferencePipeline, PipelineAssignment
from repro.engine.placement import TopologyPosition, mesh_positions
from repro.llm.costmodel import LatencyModel
from repro.llm.spec import GPT_20B
from repro.workload.request import Request

from oracles import batching as batching_oracle


def make_pipeline(pipeline_degree=3, tensor_degree=4, batch_size=4, pipeline_index=0):
    assignment = PipelineAssignment(
        pipeline_index=pipeline_index,
        pipeline_degree=pipeline_degree,
        tensor_degree=tensor_degree,
    )
    for position in mesh_positions(1, pipeline_degree, tensor_degree):
        actual = TopologyPosition(pipeline_index, position.stage_index, position.shard_index)
        gpu_index = position.stage_index * tensor_degree + position.shard_index
        assignment.devices[actual] = (f"inst-{gpu_index // 4}", gpu_index % 4)
    daemons = tuple(ContextDaemon(device) for device in assignment.devices.values())
    return InferencePipeline(assignment, LatencyModel(GPT_20B), batch_size, daemons)


def make_batch(size=4, output_tokens=64):
    return batching_oracle.build(
        [Request(arrival_time=0.0, output_tokens=output_tokens) for _ in range(size)]
    )


class TestAssignment:
    def test_fully_assigned(self):
        pipeline = make_pipeline()
        assert pipeline.assignment.is_fully_assigned
        assert len(pipeline.assignment.devices) == 12
        assert len(pipeline.assignment.instance_ids) == 3

    def test_device_at_lookup(self):
        assignment = make_pipeline().assignment
        assert assignment.devices[TopologyPosition(0, 0, 0)] == ("inst-0", 0)
        assert assignment.devices.get(TopologyPosition(0, 2, 3)) is not None

    def test_uses_instance(self):
        pipeline = make_pipeline()
        assert pipeline.uses_instance("inst-0")
        assert not pipeline.uses_instance("inst-99")


def fresh_execution_time(batch, pipeline_degree=3, tensor_degree=4):
    """Prefill plus every output token, straight from the cost model."""
    model = LatencyModel(GPT_20B)
    iteration = model.decode_iteration_time(
        pipeline_degree, tensor_degree, batch.size, context_length=batch.input_tokens
    )
    prefill = model.prefill_time(pipeline_degree, tensor_degree, batch.size, batch.input_tokens)
    return prefill + batch.output_tokens * iteration


class TestDecoding:
    def test_start_batch_returns_completion_time(self):
        pipeline = make_pipeline()
        batch = make_batch()
        finish = pipeline.start_batch(batch, time=10.0)
        assert finish == 10.0 + fresh_execution_time(batch)
        assert pipeline.is_busy
        assert all(r.first_start_time == 10.0 for r in batch.requests)

    def test_double_start_rejected(self):
        pipeline = make_pipeline()
        pipeline.start_batch(make_batch(), time=0.0)
        with pytest.raises(RuntimeError):
            pipeline.start_batch(make_batch(), time=1.0)

    def test_tokens_decoded_by_grows_over_time(self):
        pipeline = make_pipeline()
        batch = make_batch()
        finish = pipeline.start_batch(batch, time=0.0)
        assert pipeline.tokens_decoded_by(0.0) == 0
        midway = pipeline.tokens_decoded_by(finish / 2)
        assert 0 < midway < batch.output_tokens
        assert pipeline.tokens_decoded_by(finish + 1) == batch.output_tokens

    def test_commit_progress_is_monotone(self):
        pipeline = make_pipeline()
        batch = make_batch()
        finish = pipeline.start_batch(batch, time=0.0)
        first = pipeline.commit_progress(finish / 3)
        second = pipeline.commit_progress(2 * finish / 3)
        assert first >= 0 and second >= 0
        assert batch.committed_tokens == first + second
        # Committing again at the same time adds nothing.
        assert pipeline.commit_progress(2 * finish / 3) == 0

    def test_complete_batch_finalises_requests(self):
        pipeline = make_pipeline()
        batch = make_batch()
        finish = pipeline.start_batch(batch, time=0.0)
        completed = pipeline.complete_batch(finish)
        assert completed is batch
        assert all(r.committed_tokens == r.output_tokens for r in completed.requests)
        assert all(r.completion_time == finish for r in completed.requests)
        assert not pipeline.is_busy
        assert completed.committed_tokens == batch.output_tokens
        assert sum(r.committed_tokens for r in completed.requests) == (
            batch.output_tokens * batch.size
        )

    def test_complete_without_batch_rejected(self):
        with pytest.raises(RuntimeError):
            make_pipeline().complete_batch(1.0)


class TestInterruption:
    def test_interrupt_preserving_cache_commits_progress(self):
        pipeline = make_pipeline()
        batch = make_batch()
        finish = pipeline.start_batch(batch, time=0.0)
        interrupted = pipeline.interrupt(finish / 2, preserve_cache=True)
        assert interrupted is batch
        assert batch.committed_tokens > 0
        assert not pipeline.is_busy

    def test_interrupt_without_cache_drops_progress(self):
        pipeline = make_pipeline()
        batch = make_batch()
        finish = pipeline.start_batch(batch, time=0.0)
        committed = pipeline.commit_progress(finish / 2)
        assert committed > 0
        pipeline.interrupt(finish / 2, preserve_cache=False)
        assert batch.committed_tokens == 0
        assert all(r.recomputed_tokens == committed for r in batch.requests)

    def test_interrupt_idle_pipeline_returns_none(self):
        assert make_pipeline().interrupt(1.0) is None

    def test_resume_skips_prefill_and_committed_tokens(self):
        pipeline = make_pipeline()
        batch = make_batch()
        finish = pipeline.start_batch(batch, time=0.0)
        pipeline.interrupt(finish / 2, preserve_cache=True)
        committed = batch.committed_tokens
        assert committed > 0

        resume_time = pipeline.start_batch(batch, time=finish, resume=True) - finish
        assert resume_time < fresh_execution_time(batch)
        iteration = pipeline.latency_model.decode_iteration_time(
            3, 4, batch.size, context_length=batch.input_tokens
        )
        assert resume_time == pytest.approx((batch.output_tokens - committed) * iteration)
        assert batch.committed_tokens == committed

    def test_restart_keeps_the_first_start_time(self):
        pipeline = make_pipeline()
        batch = make_batch()
        pipeline.start_batch(batch, time=8.0)
        pipeline.interrupt(9.0, preserve_cache=True)
        end = pipeline.start_batch(batch, time=9.0, resume=True)
        pipeline.complete_batch(end)
        for request in batch.requests:
            assert request.first_start_time == 8.0
            assert request.completion_time == end

    def test_restart_without_resume_drops_cache(self):
        pipeline = make_pipeline()
        batch = make_batch()
        finish = pipeline.start_batch(batch, time=0.0)
        pipeline.interrupt(finish / 2, preserve_cache=True)
        assert batch.committed_tokens > 0
        pipeline.start_batch(batch, time=finish, resume=False)
        assert batch.committed_tokens == 0

    def test_invalid_batch_size_rejected(self):
        assignment = PipelineAssignment(0, 1, 1)
        with pytest.raises(ValueError):
            InferencePipeline(assignment, LatencyModel(GPT_20B), 0, ())


#: The cost model whose uncached class methods give the expected times.
FRESH_MODEL = LatencyModel(GPT_20B)


def fresh_timing(batch, pipeline_degree=3, tensor_degree=4):
    """``(decode iteration time, prefill time)`` from the cost model, past its memo."""
    return (
        LatencyModel.decode_iteration_time(
            FRESH_MODEL,
            pipeline_degree,
            tensor_degree,
            batch.size,
            context_length=batch.input_tokens,
        ),
        LatencyModel.prefill_time(
            FRESH_MODEL, pipeline_degree, tensor_degree, batch.size, batch.input_tokens
        ),
    )


def decoded_by(time, start, timing, prefill_needed, at_start, output_tokens):
    """``tokens_decoded_by`` as it was, with the cost model's times passed in."""
    iteration, prefill = timing
    elapsed = max(time - start, 0.0)
    if prefill_needed:
        if elapsed <= prefill:
            return 0
        elapsed -= prefill
    if iteration <= 0:
        return output_tokens - at_start
    return min(int(elapsed // iteration), output_tokens - at_start)


class TestTimingTable:
    """A pipeline times its batches from its table, bit for bit as the cost model does."""

    @pytest.mark.parametrize("committed, resume", [(0, False), (24, False), (24, True)])
    def test_times_equal_the_cost_model(self, committed, resume):
        pipeline = make_pipeline(batch_size=8)
        start = 3.0
        # 512 comes back after a prompt-length change, to entries already filled.
        for visit, prompt in enumerate((128, 512, 2048, 512)):
            for size in range(1, 9):
                batch = batching_oracle.build(
                    [Request(0.0, prompt, 64 + member) for member in range(size)]
                )
                batch.commit_tokens(committed)
                timing = fresh_timing(batch)
                iteration, prefill = timing
                lookups = pipeline.latency_model.cache_info()
                finish = pipeline.start_batch(batch, start, resume=resume)
                if resume:
                    assert finish == start + batch.remaining_tokens * iteration
                else:
                    assert finish == start + (prefill + batch.output_tokens * iteration)
                if visit == 3:  # A filled entry: no cost-model lookup.
                    assert pipeline.latency_model.cache_info() == lookups
                for fraction in (0.0, 0.01, 0.3, 0.77, 1.0, 1.5):
                    time = start + fraction * (finish - start)
                    assert pipeline.tokens_decoded_by(time) == decoded_by(
                        time, start, timing, not resume, committed if resume else 0, 64 + size - 1
                    )
                pipeline.complete_batch(finish)
                start = finish
        assert sorted(pipeline.timings) == sorted(
            (size, prompt) for size in range(1, 9) for prompt in (128, 512, 2048)
        )
