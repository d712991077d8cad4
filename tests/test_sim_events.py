"""Tests for the discrete-event simulation core."""

import pytest
from hypothesis import given, strategies as st

from oracles.engine import SteppingSimulator, push_raw, step
from repro.experiments.runner import run_scenario_experiment
from repro.experiments.scenarios import chaos_scenario
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventType


def push_at(sim, time, payload=None):
    return sim.schedule_at(time, EventType.GENERIC, payload)


def drain(sim, until=None):
    """Run *sim* (to *until*) and return the generic events it dispatched, in order."""
    events = []
    sim.on(EventType.GENERIC, events.append)
    sim.run(until)
    return events


class TestEventOrder:
    def test_pop_orders_by_time(self):
        sim = Simulator()
        for time in (3.0, 1.0, 2.0):
            push_at(sim, time)
        assert [event.time for event in drain(sim)] == [1.0, 2.0, 3.0]

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        first = push_at(sim, 1.0, {"idx": 1})
        second = push_at(sim, 1.0, {"idx": 2})
        assert drain(sim) == [first, second]

    def test_reserved_slot_sorts_where_it_was_reserved(self):
        sim = Simulator()
        before = push_at(sim, 1.0)
        slot = sim.reserve_order()
        after = push_at(sim, 1.0)
        late = sim.schedule_at(1.0, EventType.GENERIC, None, None, (slot, 2))
        early = sim.schedule_at(1.0, EventType.GENERIC, None, None, (slot, 1))
        assert drain(sim) == [before, early, late, after]

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        cancelled = push_at(sim, 1.0)
        kept = push_at(sim, 2.0)
        cancelled.cancel()
        assert drain(sim) == [kept]

    def test_negative_time_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_at(-1.0)
        assert sim.run() == 0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_pop_is_monotone_nondecreasing(self, times):
        sim = Simulator()
        for time in times:
            push_at(sim, time)
        popped = [event.time for event in drain(sim)]
        assert popped == sorted(popped)
        assert len(popped) == len(times)

    def test_run_respects_until(self):
        sim = Simulator()
        seen = []
        for time in (1.0, 10.0):
            sim.schedule_at(time, EventType.GENERIC, callback=lambda e: seen.append(e.time))
        assert sim.run(until=5.0) == 1
        assert sim.run(until=5.0) == 0
        assert seen == [1.0]
        assert sim.run() == 1
        assert seen == [1.0, 10.0]


class TestCancellation:
    def test_cancelled_entries_keep_pop_order(self):
        sim = Simulator()
        events = [push_at(sim, float(i), {"idx": i}) for i in range(200)]
        for i, event in enumerate(events):
            if i % 2 == 0:
                event.cancel()
        popped = [event.payload["idx"] for event in drain(sim)]
        assert popped == [i for i in range(200) if i % 2 == 1]

    def test_cancelled_entries_keep_same_time_insertion_order(self):
        sim = Simulator()
        keep = []
        for i in range(300):
            event = push_at(sim, 1.0, {"idx": i})
            if i % 3 == 0:
                keep.append(i)
            else:
                event.cancel()
        assert [event.payload["idx"] for event in drain(sim)] == keep

    def test_cancel_after_pop_is_harmless(self):
        sim = Simulator()
        first = push_at(sim, 1.0)
        push_at(sim, 2.0)
        assert drain(sim, until=1.0) == [first]
        first.cancel()  # already dispatched: must not disturb the heap
        assert [event.time for event in drain(sim)] == [2.0]

    def test_double_cancel_is_harmless(self):
        sim = Simulator()
        event = push_at(sim, 1.0)
        push_at(sim, 2.0)
        event.cancel()
        event.cancel()
        assert [event.time for event in drain(sim)] == [2.0]

    def test_interleaved_cancel_and_run_dispatches_survivors(self):
        sim = Simulator()
        fired = []
        pending = []
        for i in range(500):
            pending.append(
                sim.schedule_at(float(i + 1), EventType.GENERIC,
                                callback=lambda e: fired.append(e.time))
            )
        for i, event in enumerate(pending):
            if i % 5 != 0:
                event.cancel()
        sim.run()
        assert fired == [float(i + 1) for i in range(500) if i % 5 == 0]

    def test_cancelled_entries_stay_bounded_under_chaos_traffic(self, monkeypatch):
        """Cancelled entries leave the heap as simulated time passes.

        The simulator drops a cancelled entry only when it reaches the top
        of the heap.  The events that get cancelled (batch completions, launch
        watchdogs, ready events) fall due within one batch or startup
        horizon, so under the cancel-heaviest traffic (the chaos scenario:
        repeated interruption, refused and stuck launches) the number
        resident at once stays small (50 at most over chaos seeds 0-3, up
        to 1,800 s).
        """
        most = [0]
        schedule_at = Simulator.schedule_at

        def counting_schedule_at(sim, *args, **kwargs):
            resident = sum(entry[3].cancelled for entry in sim._heap)
            most[0] = max(most[0], resident)
            return schedule_at(sim, *args, **kwargs)

        monkeypatch.setattr(Simulator, "schedule_at", counting_schedule_at)
        scenario, arrivals = chaos_scenario("OPT-6.7B", duration=300.0, target_requests=8000)
        run_scenario_experiment(scenario, arrivals, drain_time=100.0)
        assert 10 <= most[0] <= 64


class TestSimulator:
    def test_dispatch_advances_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.0, EventType.GENERIC, callback=lambda e: seen.append(e.time))
        sim.run()
        assert seen == [2.0]
        assert sim.now == 2.0

    def test_handlers_receive_events_by_type(self):
        sim = Simulator()
        seen = []
        sim.on(EventType.REQUEST_ARRIVAL, lambda e: seen.append("arrival"))
        sim.on(EventType.GENERIC, lambda e: seen.append("generic"))
        sim.schedule_at(1.0, EventType.REQUEST_ARRIVAL)
        sim.schedule_at(2.0, EventType.GENERIC)
        sim.run()
        assert seen == ["arrival", "generic"]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        sim.schedule_at(1.0)
        sim.schedule_at(10.0)
        dispatched = sim.run(until=5.0)
        assert dispatched == 1
        assert sim.now == 5.0
        # An earlier ``until`` never moves time backwards.
        assert sim.run(until=3.0) == 0
        assert sim.now == 5.0
        # The later event is still queued.
        assert sim.run() == 1
        assert sim.now == 10.0

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(5.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0)

    @pytest.mark.parametrize(
        "schedule",
        [
            pytest.param(lambda sim: sim.schedule_at(float("nan")), id="time-nan"),
            pytest.param(lambda sim: sim.schedule_at(float("inf")), id="time-inf"),
            pytest.param(lambda sim: sim.schedule_after(float("nan")), id="delay-nan"),
            pytest.param(lambda sim: sim.schedule_after(float("inf")), id="delay-inf"),
        ],
    )
    def test_non_finite_time_rejected(self, schedule):
        # A ``nan`` time would fire at ``now``, an ``inf`` one move ``now`` to infinity.
        sim = Simulator()
        sim.run(until=4.0)
        with pytest.raises(ValueError):
            schedule(sim)
        assert sim.run() == 0
        assert sim.now == 4.0

    @pytest.mark.parametrize("until", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_until_rejected(self, until):
        # ``nan`` would ignore the bound and ``inf`` move ``now`` to infinity.
        sim = Simulator()
        sim.schedule_at(5.0)
        sim.schedule_at(50.0)
        with pytest.raises(ValueError):
            sim.run(until=until)
        assert sim.now == 0.0
        assert sim.dispatched_events == 0
        assert sim.run() == 2
        assert sim.now == 50.0

    def test_rounding_step_back_is_clamped_to_now(self):
        # A time a float rounding error behind ``now`` is tolerated: the
        # event fires at ``now`` and time never moves backwards.
        sim = Simulator()
        sim.schedule_at(10.0)
        sim.run()
        seen = []
        event = sim.schedule_at(
            10.0 - 1e-12, EventType.GENERIC, callback=lambda e: seen.append(sim.now)
        )
        assert event.time == 10.0
        push_raw(
            sim, Event(10.0 - 1e-12, EventType.GENERIC, callback=lambda e: seen.append(sim.now))
        )
        sim.run()
        assert seen == [10.0, 10.0]
        assert sim.now == 10.0

    def test_event_behind_now_raises_when_fired(self):
        sim = Simulator()
        sim.schedule_at(10.0)
        sim.run()
        push_raw(sim, Event(9.0, EventType.GENERIC))
        with pytest.raises(ValueError):
            sim.run()
        assert sim.now == 10.0

    @pytest.mark.parametrize(
        "step_back, raises", [(1e-12, False), (5e-10, False), (2e-9, True), (1.0, True)]
    )
    def test_fire_tolerates_steps_back_below_one_nanosecond(self, step_back, raises):
        sim = Simulator()
        sim.schedule_at(10.0)
        sim.run()
        push_raw(sim, Event(10.0 - step_back, EventType.GENERIC))
        if raises:
            with pytest.raises(ValueError):
                sim.run()
        else:
            assert sim.run() == 1
        assert sim.now == 10.0

    @pytest.mark.parametrize("step_back, raises", [(5e-10, False), (2e-9, True)])
    def test_schedule_at_tolerates_steps_back_below_one_nanosecond(
        self, step_back, raises
    ):
        sim = Simulator()
        sim.schedule_at(10.0)
        sim.run()
        if raises:
            with pytest.raises(ValueError):
                sim.schedule_at(10.0 - step_back)
            assert sim.run() == 0
        else:
            assert sim.schedule_at(10.0 - step_back).time == 10.0

    def test_event_behind_now_is_not_dispatched(self):
        sim = Simulator()
        seen = []
        sim.on(EventType.GENERIC, lambda e: seen.append(e.time))
        sim.schedule_at(10.0)
        sim.run()
        push_raw(sim, Event(9.0, EventType.GENERIC, callback=lambda e: seen.append(-1.0)))
        with pytest.raises(ValueError):
            sim.run()
        assert seen == [10.0]
        assert sim.dispatched_events == 1

    def test_now_starts_at_zero(self):
        sim = Simulator()
        assert sim.now == 0.0
        assert isinstance(sim.now, float)

    def test_now_is_a_float_after_an_integer_timestamp(self):
        sim = Simulator()
        sim.schedule_at(3)
        sim.run()
        assert sim.now == 3.0
        assert isinstance(sim.now, float)
        sim.run(until=7)
        assert isinstance(sim.now, float)

    def test_run_until_moves_now_on_an_empty_queue(self):
        sim = Simulator()
        assert sim.run(until=7.5) == 0
        assert sim.now == 7.5

    def test_run_until_fires_events_at_exactly_until(self):
        sim = Simulator()
        sim.schedule_at(5.0)
        sim.schedule_at(5.0 + 1e-6)
        assert sim.run(until=5.0) == 1
        assert sim.now == 5.0
        assert sim.run() == 1

    def test_schedule_after_is_relative_to_now(self):
        sim = Simulator()
        sim.run(until=4.0)
        event = sim.schedule_after(2.5)
        assert event.time == 6.5
        assert sim.schedule_after(0.0).time == 4.0

    def test_reference_step_moves_now_to_the_event(self):
        sim = Simulator()
        sim.schedule_at(2.0)
        sim.schedule_at(9.0)
        assert step(sim).time == 2.0
        assert sim.now == 2.0
        assert step(sim).time == 9.0
        assert sim.now == 9.0

    def test_handlers_read_now_at_their_event(self):
        sim = Simulator()
        seen = []
        sim.on(EventType.GENERIC, lambda e: seen.append(sim.now))
        for time in (1.5, 1.5, 4.0):
            sim.schedule_at(time)
        sim.run()
        assert seen == [1.5, 1.5, 4.0]

    def test_schedule_after_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule_after(-1.0)

    def test_events_scheduled_during_dispatch_are_processed(self):
        sim = Simulator()
        seen = []

        def chain(event):
            seen.append(event.time)
            if event.time < 3.0:
                sim.schedule_after(1.0, EventType.GENERIC, callback=chain)

        sim.schedule_at(1.0, EventType.GENERIC, callback=chain)
        sim.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_reference_step_returns_none_when_empty(self):
        assert step(Simulator()) is None

    def test_dispatched_events_counter(self):
        sim = Simulator()
        sim.schedule_at(1.0)
        sim.schedule_at(2.0)
        sim.run()
        assert sim.dispatched_events == 2


class TestHorizon:
    """``Simulator.horizon``: the earliest pending entry, capped by the running bound."""

    def test_empty_heap_gives_now(self):
        sim = Simulator()
        assert sim.horizon() == 0.0
        sim.run(until=4.0)
        assert sim.horizon() == 4.0

    def test_earliest_entry_outside_a_run(self):
        sim = Simulator()
        push_at(sim, 7.0)
        push_at(sim, 3.0)
        assert sim.horizon() == 3.0

    def test_cancelled_top_entry_counts(self):
        sim = Simulator()
        push_at(sim, 2.0).cancel()
        push_at(sim, 5.0)
        assert sim.horizon() == 2.0
        # Reading it pops nothing: the run still drops the cancelled entry.
        assert sim.run() == 1

    @pytest.mark.parametrize("simulator_class", [Simulator, SteppingSimulator])
    def test_capped_by_the_running_bound_inside_a_handler(self, simulator_class):
        sim = simulator_class()
        seen = []
        sim.schedule_at(1.0, EventType.GENERIC, callback=lambda e: seen.append(sim.horizon()))
        sim.schedule_at(2.0, EventType.GENERIC, callback=lambda e: seen.append(sim.horizon()))
        push_at(sim, 10.0)
        sim.run(until=5.0)
        # The entry at 10 is pending, but this run stops at 5.
        assert seen == [2.0, 5.0]
        sim.run()
        assert sim.horizon() == sim.now == 10.0

    @pytest.mark.parametrize("simulator_class", [Simulator, SteppingSimulator])
    def test_bound_is_gone_after_the_run_returns(self, simulator_class):
        sim = simulator_class()
        push_at(sim, 1.0)
        push_at(sim, 10.0)
        sim.run(until=5.0)
        assert sim.horizon() == 10.0

    @pytest.mark.parametrize("simulator_class", [Simulator, SteppingSimulator])
    def test_bound_is_gone_after_the_run_raises(self, simulator_class):
        sim = simulator_class()

        def boom(event):
            raise RuntimeError("boom")

        sim.schedule_at(1.0, EventType.GENERIC, callback=boom)
        push_at(sim, 10.0)
        with pytest.raises(RuntimeError):
            sim.run(until=5.0)
        assert sim.horizon() == 10.0

    def test_reference_step_caps_at_its_own_event(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, EventType.GENERIC, callback=lambda e: seen.append(sim.horizon()))
        push_at(sim, 10.0)
        step(sim)
        assert seen == [1.0]
        assert sim.horizon() == 10.0
