"""References for the simulator's run loop and horizon, and raw heap entries.

:meth:`~repro.sim.engine.Simulator.run` pops the simulator's heap and
fires each event in one loop turn.  :class:`SteppingSimulator` runs the way
that loop used to: pop the next live event off the heap, then one
:func:`fire` call per event.  Both must dispatch the same events in the
same order, leave ``now`` and ``dispatched_events`` equal and return the
same counts.  The stepping reference records its ``until`` bound for
:meth:`~repro.sim.engine.Simulator.horizon` as ``run`` does.  :func:`step`
dispatches one event of any simulator the same way, with the stepped
event's time as its bound.

:class:`PerArrivalSimulator` has a horizon that is always ``now``, so a
serving system's take-in loop handles only the occurrence whose event
fired, and every streamed arrival and every batch completion fires as an
event of its own, at the heap key its event had before they were taken
in.  A run on it must leave every outcome and every ``run(until=)``
boundary state equal to the same run on a
:class:`~repro.sim.engine.Simulator`.

:func:`push_raw` is the one place tests write a heap entry themselves, to
put an event behind ``now`` that ``schedule_at`` would refuse or clamp.
"""

import math
from heapq import heappop, heappush

from repro.sim.engine import Simulator


def push_raw(sim, event):
    """Push *event* at its own time with the next insertion order; return it.

    Skips every check ``schedule_at`` makes, so the run loop's own
    backwards-time check is what meets the event.
    """
    heappush(sim._heap, (event.time, next(sim._counter), 0, event))
    return event


def fire(sim, event):
    """Move ``sim.now`` to *event*'s time and invoke its callback + handlers.

    An event more than 1 ns behind ``now`` raises before anything fires.
    """
    time = event.time
    now = sim.now
    if time > now:
        sim.now = float(time)
    elif time < now - 1e-9:
        raise ValueError(f"cannot move time backwards: now={now:.6f}, requested={time:.6f}")
    sim._dispatched += 1
    callback = event.callback
    if callback is not None:
        callback(event)
    for handler in sim._dispatch.get(event.event_type, ()):
        handler(event)


def step(sim):
    """Dispatch *sim*'s next live event and return it, or ``None`` if none is left.

    The step runs until that event's time: ``horizon`` reads no later
    while its handlers run.
    """
    heap = sim._heap
    while heap:
        event = heappop(heap)[3]
        if not event.cancelled:
            sim._bound = event.time
            try:
                fire(sim, event)
            finally:
                sim._bound = math.inf
            return event
    return None


class SteppingSimulator(Simulator):
    """Pops the next live event, then calls :func:`fire`, once per event."""

    def _pop_next(self, until):
        heap = self._heap
        while heap:
            time, _major, _minor, event = heap[0]
            if event.cancelled:
                heappop(heap)
                continue
            if until is not None and time > until:
                return None
            heappop(heap)
            return event
        return None

    def run(self, until=None):
        if until is not None and not math.isfinite(until):
            raise ValueError(f"cannot run until a non-finite time: {until}")
        self._bound = math.inf if until is None else until
        dispatched = 0
        try:
            while True:
                event = self._pop_next(until)
                if event is None:
                    break
                fire(self, event)
                dispatched += 1
        finally:
            self._bound = math.inf
        if until is not None and until > self.now:
            self.now = float(until)
        return dispatched


class PerArrivalSimulator(Simulator):
    """Looks no further than ``now``: every arrival and completion is an event."""

    def horizon(self):
        return self.now
