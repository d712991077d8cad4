"""Event primitives for the discrete-event simulation core.

The SpotServe reproduction is driven by a small discrete-event simulator.
Everything that happens in the system -- request arrivals, instance
preemption notifications, the end of a grace period, the completion of a
decoding batch, the completion of a context migration -- is an :class:`Event`
scheduled on the :class:`~repro.sim.engine.Simulator`'s heap and dispatched
in timestamp order.

The simulator breaks ties between events scheduled for the same instant by
the order they were scheduled in, which keeps the simulation fully
deterministic.

Streamed arrivals and batch completions are events only when a serving
system cannot take them in before the simulator's horizon (see
``ServingSystemBase._take_in``); the rest happen inside the handler of the
event that precedes them.  The hot event types still carry their payload as
a bare object or tuple instead of a per-event dict (``REQUEST_ARRIVAL``
carries the request itself, ``BATCH_COMPLETION`` a ``(pipeline, batch)``
tuple), and :class:`Event` uses ``__slots__``.  Cancelled events are
dropped lazily as they reach the top of the heap.  The events that get
cancelled are launch watchdogs, instance-ready events and the armed
completion of a batch that an interrupt stops; an armed arrival is never
cancelled.  They fall due within one batch or startup horizon, so they
leave the heap as simulated time passes; ``tests/test_sim_events.py`` pins
the bound under chaos traffic.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Optional


class EventType(Enum):
    """Classification of events used by the serving simulations.

    Members hash by identity: the simulator looks up every event's type in
    its dispatch table, and ``Enum.__hash__`` is Python code
    (``hash(self._name_)``).  Members are singletons and ``Enum`` equality
    is identity, so every dict and set lookup gives the same answer; only
    the iteration order of a set of members can differ, and nothing
    iterates one.
    """

    __hash__ = object.__hash__

    REQUEST_ARRIVAL = "request_arrival"
    PREEMPTION_NOTICE = "preemption_notice"
    PREEMPTION_FINAL = "preemption_final"
    ZONE_OUTAGE = "zone_outage"
    ACQUISITION_READY = "acquisition_ready"
    LAUNCH_FAILURE = "launch_failure"
    BATCH_COMPLETION = "batch_completion"
    MIGRATION_COMPLETE = "migration_complete"
    RECONFIGURATION = "reconfiguration"
    WORKLOAD_CHECK = "workload_check"
    GENERIC = "generic"


class Event:
    """A single simulation event.

    Parameters
    ----------
    time:
        Simulation timestamp (seconds) at which the event fires.
    event_type:
        One of :class:`EventType`.
    payload:
        Event-specific data.  Cold event types use a dict; the hot types
        carry their object(s) directly (see the module docstring).
    callback:
        Optional callable invoked with the event when it is dispatched.
    """

    __slots__ = ("time", "event_type", "payload", "callback", "cancelled")

    def __init__(
        self,
        time: float,
        event_type: EventType = EventType.GENERIC,
        payload: Any = None,
        callback: Optional[Callable[["Event"], None]] = None,
    ) -> None:
        self.time = time
        self.event_type = event_type
        self.payload = {} if payload is None else payload
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; the simulator will silently drop it."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Event(time={self.time!r}, event_type={self.event_type!r}, "
            f"cancelled={self.cancelled!r})"
        )
