"""The simulator's run loop against a stepping reference.

``Simulator.run`` pops the event heap and fires each event in one loop
turn; ``oracles.engine.SteppingSimulator`` does the same work through one
pop of the next live event and one ``fire`` call per event.  Random schedules run
on both in ``run(until=)`` slices must dispatch the same events in the same
order, read the same :meth:`~repro.sim.engine.Simulator.horizon` in their
handlers, and after every slice leave the same ``now`` and
``dispatched_events`` and return the same count, or raise the same error.

A schedule mixes same-time ties, events pushed into reserved order slots,
events cancelled before the run (at the top of the heap or inside it), and
events whose callback or handler schedules at ``now``, cancels a pending
event, raises, or pushes an event behind ``now``.
"""

from hypothesis import example, given, settings, strategies as st

from oracles.engine import SteppingSimulator, push_raw
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventType

#: Whole and half seconds, some as ints, so equal times tie often and an
#: integer timestamp checks that ``now`` stays a float.
TIMES = st.one_of(st.integers(0, 6), st.integers(0, 12).map(lambda k: k / 2))

#: How an event is handled: its own callback, two registered handlers, or
#: a callback and a handler.
KINDS = ("callback", "handlers", "both")

#: What a fired event does: nothing, schedule another event ``delay``
#: after ``now``, cancel an event (by creation index), raise, or push an
#: event ``gap`` behind ``now`` (within 1 ns it fires, further it raises).
ACTIONS = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("schedule"), st.sampled_from([0.0, 0.0, 0.5, 2.0])),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.just(("raise",)),
    st.tuples(st.just("behind"), st.sampled_from([1e-12, 5e-10, 2e-9, 1.0])),
)

#: Setup steps: schedule an event, reserve an order slot, schedule into a
#: reserved slot (by index among the slots reserved so far, with a drawn
#: minor rank), or cancel an already scheduled event.
SETUP = st.lists(
    st.one_of(
        st.tuples(st.just("event"), TIMES, st.sampled_from(KINDS)),
        st.just(("reserve",)),
        st.tuples(
            st.just("ordered"), TIMES, st.sampled_from(KINDS), st.integers(0, 3), st.integers(0, 3)
        ),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
    ),
    max_size=25,
)

#: ``run(until=)`` bounds; they are sorted, then two unbounded runs follow.
SLICES = st.lists(st.integers(0, 16).map(lambda k: k / 2), max_size=4)

#: Events a schedule may hold, so a chain of events at ``now`` ends.
MAX_EVENTS = 120


class Boom(Exception):
    """Raised by an event whose action is ``raise``."""


class Schedule:
    """Builds one schedule on a simulator and logs what it dispatches."""

    def __init__(self, sim, actions):
        self.sim = sim
        self.actions = actions
        self.events = []
        self.log = []
        sim.on(EventType.WORKLOAD_CHECK, self.acting_handler)
        sim.on(EventType.WORKLOAD_CHECK, self.logging_handler)
        sim.on(EventType.REQUEST_ARRIVAL, self.logging_handler)

    def schedule(self, time, kind, order=None):
        ident = len(self.events)
        if kind == "callback":
            event = self.sim.schedule_at(time, EventType.GENERIC, ident, self.callback, order)
        elif kind == "handlers":
            event = self.sim.schedule_at(time, EventType.WORKLOAD_CHECK, ident, None, order)
        else:
            event = self.sim.schedule_at(
                time, EventType.REQUEST_ARRIVAL, ident, self.callback, order
            )
        self.events.append(event)

    def callback(self, event):
        self.log.append(("callback", event.payload, self.sim.now))
        self.act(event.payload)

    def acting_handler(self, event):
        self.log.append(("handler", event.payload, self.sim.now))
        self.act(event.payload)

    def logging_handler(self, event):
        self.log.append(("logger", event.payload, self.sim.now, self.sim.horizon()))

    def act(self, ident):
        action = self.actions[ident % len(self.actions)]
        now = self.sim.now
        room = len(self.events) < MAX_EVENTS
        if action[0] == "schedule" and room:
            self.schedule(now + action[1], KINDS[ident % len(KINDS)])
        elif action[0] == "cancel":
            self.events[action[1] % len(self.events)].cancel()
        elif action[0] == "raise":
            raise Boom(ident)
        elif action[0] == "behind" and room and now >= action[1]:
            event = Event(now - action[1], EventType.GENERIC, len(self.events), self.callback)
            self.events.append(push_raw(self.sim, event))


def replay(sim_class, setup, actions, slices):
    """Build *setup* on a new *sim_class*, run it in slices, return the record."""
    sim = sim_class()
    schedule = Schedule(sim, actions)
    slots = []
    for step in setup:
        if step[0] == "event":
            schedule.schedule(step[1], step[2])
        elif step[0] == "reserve":
            slots.append(sim.reserve_order())
        elif step[0] == "ordered" and slots:
            # A unique minor: equal (time, major, minor) keys never occur.
            minor = step[4] * MAX_EVENTS + len(schedule.events)
            schedule.schedule(step[1], step[2], order=(slots[step[3] % len(slots)], minor))
        elif step[0] == "cancel" and schedule.events:
            schedule.events[step[1] % len(schedule.events)].cancel()
    record = []
    for until in [*sorted(slices), None, None]:
        try:
            outcome = sim.run(until=until)
        except Boom as error:
            outcome = ("boom", error.args[0])
        except ValueError as error:
            outcome = ("ValueError", str(error))
        record.append((until, outcome, sim.now, type(sim.now), sim.dispatched_events))
    return schedule.log, record


@settings(max_examples=300, deadline=None)
@given(setup=SETUP, actions=st.lists(ACTIONS, min_size=1, max_size=8), slices=SLICES)
# A cancelled event at the top of the heap, and one inside it.
@example(
    setup=[("event", 1, "callback"), ("event", 2, "handlers"), ("cancel", 0)],
    actions=[("none",)],
    slices=[],
)
@example(
    setup=[("event", 1, "callback"), ("event", 2, "both"), ("event", 3, "handlers"), ("cancel", 1)],
    actions=[("none",)],
    slices=[1.5],
)
# Events pushed behind ``now``: tolerated within 1 ns, refused further back.
@example(setup=[("event", 2, "callback")], actions=[("behind", 5e-10)], slices=[])
@example(setup=[("event", 2, "callback")], actions=[("behind", 2e-9)], slices=[])
# Reserved slots, a raising handler, and handlers that schedule at ``now``.
@example(
    setup=[
        ("event", 1.0, "handlers"),
        ("reserve",),
        ("event", 1.0, "both"),
        ("ordered", 1.0, "callback", 0, 1),
        ("ordered", 1.0, "callback", 0, 0),
    ],
    actions=[("schedule", 0.0), ("raise",), ("cancel", 3)],
    slices=[1.0, 1.0, 2.5],
)
def test_run_matches_the_stepping_reference(setup, actions, slices):
    inline = replay(Simulator, setup, actions, slices)
    stepping = replay(SteppingSimulator, setup, actions, slices)
    assert inline == stepping
    assert all(now_type is float for _until, _outcome, _now, now_type, _count in inline[1])
