"""Stateful inference recovery: the just-in-time interruption arranger.

Section 4 of the paper introduces token-level commit of decoding progress.
When a grace period starts (because an instance is being preempted, or a new
instance is being initialised), each inference engine's *interruption
arranger* decides how many more decoding iterations to run before stopping
for context migration:

* **preemption**:  ``S_t = argmax_S { l_exe(S | C_t) < T^- - T_mig }`` --
  squeeze in as much decoding as possible while still leaving enough of the
  grace period ``T^-`` for the migration itself (``T_mig``);
* **acquisition**: ``S_t = argmin_S { l_exe(S | C_t) >= T^+ }`` -- keep
  decoding just long enough to cover the new instance's initialisation time
  ``T^+`` (migration happens *after* the acquisition, so there is no reason
  to stop early);
* in both cases the arrangement must not make the request slower than simply
  rerouting it: if ``T_mig`` is not smaller than the work that would be
  preserved, plain rerouting (drop the cache) is preferred.

The arranger also carries the fault-tolerance rules of Section 4.2 for
overlapping grace periods and for preemptions that arrive earlier than
announced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..engine.batching import Batch
from ..llm.costmodel import LatencyModel
from .config import ParallelConfig

#: Fewest committed-plus-arranged tokens for which a preemption
#: arrangement migrates the KV cache instead of rerouting.
MIN_USEFUL_TOKENS = 1

#: Slack under which a reclaim still counts as on time (seconds): it
#: absorbs floating-point noise so an on-time reclaim (the only kind the
#: fault-free provider ever delivers) is never misclassified as early,
#: which keeps the detection digest-neutral.
EARLY_PREEMPTION_TOLERANCE = 1e-9


@dataclass(frozen=True)
class InterruptionArrangement:
    """Decision for one pipeline facing an interruption."""

    #: Extra decoding iterations to run before stopping (``S_t``).
    tokens_to_decode: int
    #: Simulation time at which the engine should stop decoding.
    stop_time: float
    #: Whether the KV cache should be migrated (False means plain rerouting).
    migrate_cache: bool
    #: The kind of interruption being handled ("preemption" or "acquisition").
    kind: str


class InterruptionArranger:
    """Implements the JIT arrangement and its fault-tolerance guards."""

    def __init__(self, latency_model: LatencyModel) -> None:
        self.latency_model = latency_model

    # ------------------------------------------------------------------
    # Decoding-time helpers
    # ------------------------------------------------------------------
    def _iteration_time(self, config: ParallelConfig, batch: Batch) -> float:
        return self.latency_model.decode_iteration_time(
            config.pipeline_degree,
            config.tensor_degree,
            batch.size,
            context_length=batch.input_tokens,
        )

    def _max_tokens_within(self, config: ParallelConfig, batch: Batch, budget: float) -> int:
        """Largest ``S`` with ``l_exe(S | C) < budget`` (capped at the work left)."""
        if budget <= 0:
            return 0
        iteration = self._iteration_time(config, batch)
        if iteration <= 0:
            return batch.remaining_tokens
        tokens = int(budget / iteration)
        return max(0, min(tokens, batch.remaining_tokens))

    def _min_tokens_covering(self, config: ParallelConfig, batch: Batch, budget: float) -> int:
        """Smallest ``S`` with ``l_exe(S | C) >= budget`` (capped at the work left)."""
        if budget <= 0:
            return 0
        iteration = self._iteration_time(config, batch)
        if iteration <= 0:
            return batch.remaining_tokens
        tokens = int(-(-budget // iteration))
        return max(0, min(tokens, batch.remaining_tokens))

    # ------------------------------------------------------------------
    # Arrangements
    # ------------------------------------------------------------------
    def arrange_preemption(
        self,
        batch: Optional[Batch],
        config: ParallelConfig,
        now: float,
        grace_deadline: float,
        migration_time: float,
    ) -> InterruptionArrangement:
        """JIT arrangement when an instance received a preemption notice."""
        if batch is None:
            return InterruptionArrangement(0, now, migrate_cache=True, kind="preemption")
        remaining_grace = max(grace_deadline - now, 0.0)
        budget = remaining_grace - migration_time
        tokens = self._max_tokens_within(config, batch, budget)
        iteration = self._iteration_time(config, batch)
        preserved_work = (batch.committed_tokens + tokens) * iteration
        # The arrangement must not increase latency: migrating the cache only
        # pays off when the preserved decoding work exceeds the migration
        # stall (T_mig < l_exe(S_t | C_t)).
        migrate_cache = (
            migration_time < preserved_work
            and batch.committed_tokens + tokens >= MIN_USEFUL_TOKENS
        )
        stop_time = now + tokens * iteration
        stop_time = min(stop_time, grace_deadline)
        return InterruptionArrangement(
            tokens_to_decode=tokens,
            stop_time=stop_time,
            migrate_cache=migrate_cache,
            kind="preemption",
        )

    def arrange_acquisition(
        self,
        batch: Optional[Batch],
        config: ParallelConfig,
        now: float,
        ready_time: float,
        migration_time: float,
    ) -> InterruptionArrangement:
        """JIT arrangement when a new instance is initialising.

        Decoding continues until the acquisition completes (context migration
        happens after the new instance joins), so the engine only needs to
        cover ``T^+ = ready_time - now`` worth of iterations.
        """
        if batch is None:
            return InterruptionArrangement(0, max(ready_time, now), migrate_cache=True, kind="acquisition")
        budget = max(ready_time - now, 0.0)
        tokens = self._min_tokens_covering(config, batch, budget)
        iteration = self._iteration_time(config, batch)
        preserved_work = (batch.committed_tokens + tokens) * iteration
        migrate_cache = migration_time < preserved_work or migration_time <= 0
        stop_time = now + tokens * iteration
        return InterruptionArrangement(
            tokens_to_decode=tokens,
            stop_time=stop_time,
            migrate_cache=migrate_cache,
            kind="acquisition",
        )

    # ------------------------------------------------------------------
    # Fault tolerance (Section 4.2)
    # ------------------------------------------------------------------
    def merge_overlapping_deadlines(self, deadlines: Sequence[float]) -> Optional[float]:
        """Effective deadline when several grace periods overlap.

        Multiple consecutive interruptions must all be honoured, so the
        earliest deadline governs every arrangement.
        """
        live = [deadline for deadline in deadlines if deadline is not None]
        if not live:
            return None
        return min(live)

    @staticmethod
    def is_early_preemption(
        announced_deadline: Optional[float], actual_time: float
    ) -> bool:
        """Whether a reclaim at *actual_time* beats its announced deadline.

        Only a reclaim more than :data:`EARLY_PREEMPTION_TOLERANCE` before
        the deadline counts as early.
        """
        if announced_deadline is None:
            return False
        return actual_time < announced_deadline - EARLY_PREEMPTION_TOLERANCE
