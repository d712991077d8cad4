"""Inference requests and their lifecycle bookkeeping.

Each request carries the prompt length and the number of output tokens to
generate (the paper fixes ``S_in = 512`` and ``S_out = 128``), plus the
timestamps needed to compute the end-to-end latency ``l_req = l_sch + l_exe``
and its scheduling/execution breakdown.
"""

from __future__ import annotations

import itertools
from math import isfinite
from operator import index
from typing import Optional

DEFAULT_INPUT_TOKENS = 512
DEFAULT_OUTPUT_TOKENS = 128

#: The counter every request id is drawn from, by ``Request`` and by
#: ``RequestQueue.next_batch``, which builds requests without the class call.
request_ids = itertools.count()


class Request:
    """A single generative-inference request.

    One is built per pre-scheduled request, per streamed arrival that
    fires as an event, and per streamed arrival a batch takes: a streamed
    arrival taken in without an event waits in
    :class:`~repro.engine.batching.RequestQueue` as its bare arrival time
    until then, and ``next_batch`` builds that one without the class
    call, storing every slot itself (a slot added here must be set there
    too).  Tens of thousands are built per run, so the class is a
    hand-written ``__slots__`` class (Python 3.9 has no
    ``dataclass(slots=True)``): it has no ``__dict__``, and writing an
    attribute it does not declare raises.  The token counts are fixed
    when the request is built.
    """

    __slots__ = (
        "arrival_time",
        "input_tokens",
        "output_tokens",
        "request_id",
        "committed_tokens",
        "first_start_time",
        "completion_time",
        "recomputed_tokens",
    )

    def __init__(
        self,
        arrival_time: float,
        input_tokens: int = DEFAULT_INPUT_TOKENS,
        output_tokens: int = DEFAULT_OUTPUT_TOKENS,
        request_id: Optional[int] = None,
    ) -> None:
        # Checked inline, not through ``workload.arrival.check_token_count``
        # (that module imports this one), and kept cheap: tens of thousands
        # are built per run.
        if not (arrival_time >= 0 and isfinite(arrival_time)):
            raise ValueError(f"arrival_time must be finite and non-negative, got {arrival_time}")
        try:
            input_tokens = index(input_tokens)
            output_tokens = index(output_tokens)
        except TypeError:
            raise ValueError(
                f"token counts must be integers, got {input_tokens!r} and {output_tokens!r}"
            ) from None
        if input_tokens <= 0 or output_tokens <= 0:
            raise ValueError("token counts must be positive")
        self.arrival_time = arrival_time
        self.input_tokens = input_tokens
        self.output_tokens = output_tokens
        self.request_id = next(request_ids) if request_id is None else request_id
        #: Number of output tokens whose KV cache has been committed so far.
        self.committed_tokens = 0
        #: Time the request first started executing on a pipeline (set by
        #: ``InferencePipeline.start_batch``; a restart keeps the first).
        self.first_start_time: Optional[float] = None
        #: Completion timestamp, set by ``InferencePipeline.complete_batch``
        #: when the final token is produced; ``completion_time -
        #: arrival_time`` is the end-to-end latency ``l_req``.
        self.completion_time: Optional[float] = None
        #: Output tokens recomputed because their KV cache was lost.
        self.recomputed_tokens = 0

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    @property
    def remaining_tokens(self) -> int:
        """Output tokens still to be generated."""
        return max(self.output_tokens - self.committed_tokens, 0)

    def commit_tokens(self, count: int) -> None:
        """Record *count* newly generated (and cached) output tokens."""
        if count < 0:
            raise ValueError("cannot commit a negative number of tokens")
        self.committed_tokens = min(self.committed_tokens + count, self.output_tokens)

    def drop_cache(self) -> None:
        """The KV cache of committed tokens was lost; they must be recomputed."""
        self.recomputed_tokens += self.committed_tokens
        self.committed_tokens = 0
