"""Stepping reference for the simulator's run loop.

:meth:`~repro.sim.engine.Simulator.run` pops the event queue's heap and
fires each event in one loop turn.  :class:`SteppingSimulator` runs the way
that loop used to: one :meth:`~repro.sim.events.EventQueue.pop_next` call
and one :meth:`~repro.sim.engine.Simulator._fire` call per event.  Both
must dispatch the same events in the same order, leave ``now`` and
``dispatched_events`` equal and return the same counts.
"""

import math

from repro.sim.engine import Simulator


class SteppingSimulator(Simulator):
    """Runs through ``pop_next`` and ``_fire``, one call of each per event."""

    def run(self, until=None):
        if until is not None and not math.isfinite(until):
            raise ValueError(f"cannot run until a non-finite time: {until}")
        dispatched = 0
        while True:
            event = self.queue.pop_next(until)
            if event is None:
                break
            self._fire(event)
            dispatched += 1
        if until is not None and until > self.now:
            self.now = float(until)
        return dispatched
