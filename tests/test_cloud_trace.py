"""Tests for spot availability traces."""

import pytest

from repro.cloud.trace import (
    BUILTIN_TRACES,
    AvailabilityTrace,
    TraceEvent,
    TraceEventKind,
    get_trace,
    trace_as,
    trace_bs,
)


def preempted(trace):
    """Spot instances the trace takes away over its whole length."""
    return sum(e.count for e in trace.events if e.kind is TraceEventKind.PREEMPT)


def counts(trace):
    """Available spot instances after each step of the trace."""
    return [count for _, count in trace.instance_counts()]


class TestTraceEvents:
    def test_delta_sign(self):
        assert TraceEvent(10.0, TraceEventKind.ACQUIRE, 2).delta == 2
        assert TraceEvent(10.0, TraceEventKind.PREEMPT, 3).delta == -3

    @pytest.mark.parametrize(
        "time, count",
        [
            pytest.param(-1.0, 1, id="negative-time"),
            pytest.param(float("nan"), 1, id="nan-time"),
            pytest.param(float("inf"), 1, id="infinite-time"),
            pytest.param(1.0, 0, id="zero-count"),
            pytest.param(1.0, -2, id="negative-count"),
        ],
    )
    def test_invalid_events_rejected(self, time, count):
        with pytest.raises(ValueError):
            TraceEvent(time, TraceEventKind.ACQUIRE, count)


class TestBuiltinTraces:
    @pytest.mark.parametrize("name", sorted(BUILTIN_TRACES))
    def test_builtin_traces_are_valid(self, name):
        trace = BUILTIN_TRACES[name]()
        assert min(counts(trace)) >= 0
        assert max(counts(trace)) <= 16
        assert trace.duration > 0

    def test_figure5_shape(self):
        """AS and BS are 20-minute segments of a fleet of ~12 4-GPU instances
        that both dip and recover (Figure 5)."""
        for trace in (trace_as(), trace_bs()):
            assert trace.duration == pytest.approx(1200.0)
            assert trace.initial_instances == 12
            assert min(counts(trace)) < trace.initial_instances
            kinds = {e.kind for e in trace.events}
            assert kinds == {TraceEventKind.PREEMPT, TraceEventKind.ACQUIRE}

    def test_bs_is_harsher_than_as(self):
        assert preempted(trace_bs()) > preempted(trace_as())
        assert min(counts(trace_bs())) <= min(counts(trace_as()))

    def test_get_trace_aliases(self):
        assert get_trace("as").name == "AS"
        assert get_trace("BS").name == "BS"
        assert get_trace("A'S").name == "A'S"

    def test_get_trace_unknown(self):
        with pytest.raises(KeyError):
            get_trace("CS")


class TestTraceQueries:
    def test_instances_at(self):
        trace = trace_as()
        assert trace.instances_at(0.0) == 12
        assert trace.instances_at(200.0) == 11
        assert trace.instances_at(10_000.0) == trace.instance_counts()[-1][1]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            AvailabilityTrace(
                name="bad",
                initial_instances=1,
                events=[TraceEvent(1.0, TraceEventKind.PREEMPT, 5)],
            )

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_duration_rejected(self, duration):
        with pytest.raises(ValueError):
            AvailabilityTrace(name="t", initial_instances=1, duration=duration)

    def test_boundary_values_construct(self):
        trace = AvailabilityTrace(
            name="t",
            initial_instances=1,
            events=[TraceEvent(0.0, TraceEventKind.ACQUIRE, 1)],
            duration=1e-9,
        )
        assert trace.instances_at(0.0) == 2

    def test_events_sorted_on_construction(self):
        trace = AvailabilityTrace(
            name="t",
            initial_instances=4,
            events=[
                TraceEvent(100.0, TraceEventKind.PREEMPT, 1),
                TraceEvent(50.0, TraceEventKind.ACQUIRE, 1),
            ],
        )
        assert [event.time for event in trace.events] == [50.0, 100.0]
