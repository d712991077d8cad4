"""Inference requests and their lifecycle bookkeeping.

Each request carries the prompt length and the number of output tokens to
generate (the paper fixes ``S_in = 512`` and ``S_out = 128``), plus the
timestamps needed to compute the end-to-end latency ``l_req = l_sch + l_exe``
and its scheduling/execution breakdown.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

DEFAULT_INPUT_TOKENS = 512
DEFAULT_OUTPUT_TOKENS = 128

_request_ids = itertools.count()


class RequestState(Enum):
    """Lifecycle of an inference request inside the serving system."""

    QUEUED = "queued"
    RUNNING = "running"
    INTERRUPTED = "interrupted"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class Request:
    """A single generative-inference request."""

    arrival_time: float
    input_tokens: int = DEFAULT_INPUT_TOKENS
    output_tokens: int = DEFAULT_OUTPUT_TOKENS
    request_id: int = field(default_factory=lambda: next(_request_ids))
    state: RequestState = RequestState.QUEUED
    #: Tenant that submitted the request (``""`` in single-tenant mode; set
    #: by :mod:`repro.core.tenancy` so each tenant's serving system only
    #: processes its own arrivals on a shared simulator).
    tenant: str = ""

    #: Number of output tokens whose KV cache has been committed so far.
    committed_tokens: int = 0
    #: Whether the committed KV cache survived the most recent interruption.
    cache_preserved: bool = True
    #: Time the request first started executing on a pipeline.
    first_start_time: Optional[float] = None
    #: Completion timestamp (set when the final token is produced).
    completion_time: Optional[float] = None
    #: Number of times the request was interrupted by a preemption.
    interruptions: int = 0
    #: Output tokens recomputed because their KV cache was lost.
    recomputed_tokens: int = 0

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")
        if self.input_tokens <= 0 or self.output_tokens <= 0:
            raise ValueError("token counts must be positive")

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    @property
    def remaining_tokens(self) -> int:
        """Output tokens still to be generated."""
        return max(self.output_tokens - self.committed_tokens, 0)

    @property
    def is_complete(self) -> bool:
        """True once every output token has been generated."""
        return self.committed_tokens >= self.output_tokens

    def commit_tokens(self, count: int) -> None:
        """Record *count* newly generated (and cached) output tokens."""
        if count < 0:
            raise ValueError("cannot commit a negative number of tokens")
        self.committed_tokens = min(self.committed_tokens + count, self.output_tokens)

    def drop_cache(self) -> None:
        """The KV cache of committed tokens was lost; they must be recomputed."""
        self.recomputed_tokens += self.committed_tokens
        self.committed_tokens = 0
        self.cache_preserved = False

    def mark_started(self, time: float) -> None:
        """Record the first time the request began executing."""
        if self.first_start_time is None:
            self.first_start_time = time
        self.state = RequestState.RUNNING

    def mark_interrupted(self) -> None:
        """Record an interruption (preemption hit the serving pipeline)."""
        self.interruptions += 1
        self.state = RequestState.INTERRUPTED

    def mark_completed(self, time: float) -> None:
        """Record completion at *time*."""
        self.completion_time = time
        self.state = RequestState.COMPLETED

    # ------------------------------------------------------------------
    # Latency metrics
    # ------------------------------------------------------------------
    def latency(self) -> Optional[float]:
        """End-to-end request latency ``l_req`` (None until completed)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time
