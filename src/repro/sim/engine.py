"""Discrete-event simulation driver.

The :class:`Simulator` owns simulated time and the event heap and
repeatedly dispatches the earliest event, moving ``now`` forward to its
timestamp.  ``now`` is a plain float that every component reads from here.
Besides the simulator, only a handler that takes work in before the
horizon (see below) writes it: forward only, to the times of the
occurrences it handles, and never past :meth:`Simulator.horizon`.
Serving systems register handlers per
:class:`~repro.sim.events.EventType`; events can also carry their own
callback.

The heap holds ``(time, major, minor, event)`` entries, and only this
module writes or reads them: :meth:`Simulator.schedule_at` pushes them and
:meth:`Simulator.run` pops them.  ``major`` is the insertion counter (or a
slot claimed by :meth:`Simulator.reserve_order`), so same-time events fire
in the order they were scheduled.  Cancelled entries stay in the heap
until they reach its top, where they are dropped.

Dispatch is the simulator's hottest loop, so handlers are kept as per-type
tuples extended at registration time (not resolved per event), and
:meth:`Simulator.run` pops the heap and fires each event in one loop turn.

:meth:`Simulator.horizon` tells a handler how far it may look ahead: no
event fires before the heap's earliest entry, and a :meth:`Simulator.run`
fires none after its ``until`` bound, which it records while it runs.
Anything a handler knows would happen strictly before the horizon, with no
event in between, it may do at once, moving ``now`` along; a serving
system's streamed arrivals and batch completions are taken in that way
(``ServingSystemBase._take_in``), and each fires as an event only when the
horizon stops the loop before it.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Callable, Dict, Optional, Tuple

from .events import Event, EventType

EventHandler = Callable[[Event], None]

#: Shared empty dispatch tuple for event types nobody registered for.
_NO_HANDLERS: Tuple[EventHandler, ...] = ()

_INFINITY = math.inf


def schedule_error(now: float, time: float) -> ValueError:
    """The error :meth:`Simulator.schedule_at` raises for *time* at *now*.

    *time* is either more than 1 ns behind *now* or not finite.
    """
    if time < now - 1e-9:
        return ValueError(f"cannot schedule event in the past: now={now:.3f}, time={time:.3f}")
    return ValueError(f"cannot schedule event at a non-finite time: {time}")


class Simulator:
    """Minimal deterministic discrete-event simulator."""

    def __init__(self) -> None:
        #: Current simulation time in seconds (never moves backwards; see
        #: the module docstring for who writes it).
        self.now = 0.0
        #: ``(time, major, minor, event)`` entries; see the module docstring.
        self._heap: list = []
        self._counter = itertools.count()
        #: Per-type dispatch table: extended on registration, read per event.
        self._dispatch: Dict[EventType, Tuple[EventHandler, ...]] = {}
        self._dispatched = 0
        #: Latest time the :meth:`run` in progress may fire an event at;
        #: infinite while none is in progress.
        self._bound = _INFINITY

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    @property
    def dispatched_events(self) -> int:
        """Number of events dispatched so far (for diagnostics).

        A :meth:`run` in progress adds its own count when it returns or
        raises.
        """
        return self._dispatched

    def schedule_at(
        self,
        time: float,
        event_type: EventType = EventType.GENERIC,
        payload: Optional[object] = None,
        callback: Optional[Callable[[Event], None]] = None,
        order: Optional[Tuple[int, int]] = None,
    ) -> Event:
        """Schedule an event at absolute simulation time *time* and return it.

        ``order`` is an optional ``(major, minor)`` tie-break pair replacing
        the default ``(next insertion counter, 0)``.  A streaming source
        uses a *reserved* major (see :meth:`reserve_order`) plus a per-item
        minor, so lazily generated events sort exactly where eager
        scheduling at submit time would have placed them.

        Raises ``ValueError`` when *time* is before ``now`` or not finite:
        ``nan`` fails every comparison and would fire at ``now``, and ``inf``
        would move ``now`` to infinity.  A time less than 1 ns behind ``now``
        (a float rounding step) is moved to ``now``.
        """
        now = self.now
        if not now - 1e-9 <= time < _INFINITY:
            raise schedule_error(now, time)
        if time <= now:
            time = now
        event = Event(time, event_type, payload, callback)
        if order is None:
            heappush(self._heap, (time, next(self._counter), 0, event))
        else:
            heappush(self._heap, (time, order[0], order[1], event))
        return event

    def schedule_after(
        self,
        delay: float,
        event_type: EventType = EventType.GENERIC,
        payload: Optional[object] = None,
        callback: Optional[Callable[[Event], None]] = None,
    ) -> Event:
        """Schedule an event *delay* seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.now + delay, event_type, payload, callback)

    def reserve_order(self) -> int:
        """Claim the next insertion-order slot without scheduling anything.

        Events later scheduled with ``order=(slot, k)`` win ties against
        everything scheduled after this call and lose them to everything
        scheduled before it, exactly as if they had all been scheduled here.
        """
        return next(self._counter)

    def horizon(self) -> float:
        """The earliest time anything pending can happen at; ``now`` if nothing is.

        That is the heap's earliest entry, capped by the ``until`` bound of
        the :meth:`run` in progress.  A cancelled entry at the top still
        counts, which only makes the horizon earlier.  Read-only: it pops
        nothing.
        """
        heap = self._heap
        if not heap:
            return self.now
        time = heap[0][0]
        bound = self._bound
        return time if time < bound else bound

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def on(self, event_type: EventType, handler: EventHandler) -> None:
        """Register *handler* to be invoked for every event of *event_type*."""
        self._dispatch[event_type] = self._dispatch.get(event_type, _NO_HANDLERS) + (handler,)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> int:
        """Run the simulation and return the number of events it dispatched.

        Stops once the next event would fire after *until* (``now`` still
        moves forward to ``until``); ``None`` runs until the heap is empty.
        Raises ``ValueError`` before anything fires when *until* is not
        finite: ``nan`` fails every comparison and would ignore the bound,
        and ``inf`` would move ``now`` to infinity.

        Cancelled entries at the top are dropped, and an event more than
        1 ns behind ``now`` is popped and raises before it fires.  The loop
        counts events in a local and adds it to :attr:`dispatched_events`
        when it returns or raises.  The bound is recorded for
        :meth:`horizon` while the loop runs, and cleared when it returns or
        raises.
        """
        if until is not None and not math.isfinite(until):
            raise ValueError(f"cannot run until a non-finite time: {until}")
        bound = self._bound = _INFINITY if until is None else until
        heap = self._heap
        table = self._dispatch
        dispatched = 0
        try:
            while heap:
                time, _major, _minor, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if time > bound:
                    break
                heappop(heap)
                now = self.now
                if time > now:
                    self.now = float(time)
                elif time < now - 1e-9:
                    raise ValueError(
                        f"cannot move time backwards: now={now:.6f}, requested={time:.6f}"
                    )
                dispatched += 1
                callback = event.callback
                if callback is not None:
                    callback(event)
                for handler in table.get(event.event_type, _NO_HANDLERS):
                    handler(event)
        finally:
            self._dispatched += dispatched
            self._bound = _INFINITY
        if until is not None and until > self.now:
            self.now = float(until)
        return dispatched
