"""Span tracing of the program's layers, applied from outside the program.

Nothing here edits ``repro``: the benchmark wraps the public entry points of
each layer on the objects one replay builds (and, for objects the serving
system creates on the fly, on their classes) and restores every patch when
the replay ends.

Every wrapped call opens a frame on one stack, so a call's *self* time is
its duration minus the durations of the wrapped calls it made.  Event
handlers and event callbacks are the outermost frames; the time between
them is the event loop's own (``loop_s``).  The self times of all frames
plus ``loop_s`` therefore add up to the wall time of the run.

Spans are kept in memory and written out when the replay ends.  Event
spans and control-stack spans are stored one by one (name, start, end,
parent, simulated time, request ids); the small per-request dataplane calls
are only aggregated, so a 200k-request replay keeps its memory bounded.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

perf_counter = time.perf_counter


class Tracer:
    """Stack-based wall-clock tracer with exclusive time per span name."""

    def __init__(self, clock: Callable[[], float]) -> None:
        #: Simulated-time source stamped on every stored span.
        self.clock = clock
        #: Stored spans: ``(name, start, end, parent index, sim time, request)``.
        self.spans: List[Optional[Tuple]] = []
        #: ``name -> [calls, total seconds, self seconds]``.
        self.stats: Dict[str, List[float]] = {}
        #: ``name -> per-call durations`` for names that report percentiles.
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: Distinct events dispatched, per span name of their event type.
        self.events: Dict[str, int] = defaultdict(int)
        #: Plain counters and value lists observed at layer boundaries.
        self.counts: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, List[float]] = defaultdict(list)
        #: Event-loop time outside every wrapped call.
        self.loop_s = 0.0
        #: Wall time inside outermost control-stack calls.
        self.control_s = 0.0
        self._stack: List[List] = []
        self._idle_since: Optional[float] = None
        self._control_depth = 0
        self._last_event: object = None

    # ------------------------------------------------------------------
    # Run boundaries
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Mark the start of the measured run (the event loop begins)."""
        self._idle_since = perf_counter()

    def stop(self) -> None:
        """Mark the end of the measured run."""
        if self._idle_since is not None and not self._stack:
            self.loop_s += perf_counter() - self._idle_since
        self._idle_since = None

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        record: bool = False,
        control: bool = False,
        keep_durations: bool = False,
        event_of: Optional[Callable] = None,
        request_of: Optional[Callable] = None,
        observe: Optional[Callable] = None,
    ) -> Callable:
        """Return *fn* wrapped in a span called *name*.

        ``record`` stores each call as a span; ``control`` adds outermost
        calls to :attr:`control_s`; ``keep_durations`` keeps per-call
        durations; ``event_of(args)`` names the dispatched event so distinct
        events are counted; ``request_of(args)`` gives the request ids of a
        stored span; ``observe(args, result)`` runs after the span closes.
        """
        stack = self._stack
        spans = self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        durations = self.durations[name] if keep_durations else None
        clock = self.clock

        def traced(*args, **kwargs):
            if event_of is not None:
                event = event_of(args)
                if event is not self._last_event:
                    self._last_event = event
                    self.events[name] += 1
            start = perf_counter()
            if stack:
                parent = stack[-1][2]
            else:
                parent = -1
                if self._idle_since is not None:
                    self.loop_s += start - self._idle_since
            index = parent
            if record:
                index = len(spans)
                spans.append(None)
            frame = [start, 0.0, index]
            stack.append(frame)
            if control:
                self._control_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self._idle_since = end
                if control:
                    self._control_depth -= 1
                    if self._control_depth == 0:
                        self.control_s += duration
                if durations is not None:
                    durations.append(duration)
                if record:
                    request = request_of(args) if request_of is not None else None
                    spans[index] = (name, start, end, parent, clock(), request)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def self_total_s(self) -> float:
        """Self time summed over every wrapped call."""
        return sum(stat[2] for stat in self.stats.values())

    def min_self_s(self) -> float:
        """Smallest self time of any stored span (negative means broken nesting)."""
        child: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        selfs = [
            span[2] - span[1] - child[index]
            for index, span in enumerate(self.spans)
            if span is not None
        ]
        return min(selfs, default=0.0)

    def write_spans(self, path: str) -> None:
        """Write the stored spans as JSON lines.

        The first line names the fields; each further line is one span as
        an array.  ``start`` and ``end`` are wall seconds since the first
        span started, ``parent`` is the id of the enclosing stored span
        (-1 for none) and ``sim_time`` the simulated clock when it ended.
        """
        stored = [(index, span) for index, span in enumerate(self.spans) if span is not None]
        origin = min((span[1] for _index, span in stored), default=0.0)
        fields = ["id", "name", "start", "end", "parent", "sim_time", "request"]
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": fields}) + "\n")
            for index, (name, start, end, parent, sim_time, request) in stored:
                row = [
                    index,
                    name,
                    round(start - origin, 7),
                    round(end - origin, 7),
                    parent,
                    sim_time,
                    request,
                ]
                out.write(json.dumps(row, separators=(",", ":")) + "\n")


class Patches:
    """Attribute patches that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(owner.attr)``."""
        self.set(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


_MISSING = object()


@contextmanager
def patched() -> Iterator[Patches]:
    """A :class:`Patches` set that is restored when the block exits."""
    patches = Patches()
    try:
        yield patches
    finally:
        patches.restore()
