"""Runtime statistics collected by every serving system.

The evaluation section of the paper reports average and tail request
latencies (Figure 6, Figure 8), per-token monetary cost (Figure 7), the
sequence of parallel configurations chosen over time (Figure 8g/8h) and the
contribution of each optimisation (Figure 9).  :class:`ServingStats` is the
single place where the serving systems record everything those figures need.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from ..workload.request import Request
from .config import ParallelConfig


def _counter(group: str, default: float = 0) -> Any:
    """Declare a summable run counter reported in *group*.

    The groups, in declaration order: ``"digest"`` (in :meth:`ServingStats.summary`
    and so in the golden digests), then ``"conservation"``, ``"faults"`` and
    ``"spill"`` (in :meth:`ServingStats.extended_summary` only).  Every report
    reads counters through :meth:`ServingStats.counters`, so the field is the
    counter's only declaration.
    """
    return field(default=default, metadata={"group": group})


@dataclass
class ReconfigurationRecord:
    """One reparallelization performed by the serving system."""

    time: float
    old_config: Optional[ParallelConfig]
    new_config: ParallelConfig
    reason: str
    stall_time: float
    migrated_bytes: float = 0.0
    reused_bytes: float = 0.0


@dataclass
class AutoscaleRecord:
    """One fleet-sizing action taken by the autoscaler."""

    time: float
    reason: str
    acquired: Dict[str, int] = field(default_factory=dict)
    released: Dict[str, int] = field(default_factory=dict)
    fleet_before: int = 0

    @property
    def delta(self) -> int:
        """Net requested fleet change."""
        return sum(self.acquired.values()) - sum(self.released.values())


@dataclass
class ServingStats:
    """Aggregated counters and logs for one serving run.

    Per-request metrics are accumulated *incrementally* at completion time
    (count, latency sum/max, and each completed request's arrival time and
    latency for the timeline plots), so the derived metrics and
    :meth:`summary` never need the :class:`~repro.workload.request.Request`
    objects themselves.  The completed requests are still retained by
    default for tests and ad-hoc inspection; heavy-traffic runs pass
    ``retain_requests=False``, and then a completed request costs two
    floats: its arrival time and latency sit in two ``array('d')`` columns
    (16 bytes, and nothing the garbage collector tracks), not in a tuple
    or the request's object graph.
    """

    system_name: str = ""
    #: Tenant label in multi-tenant runs (``""`` in single-tenant mode).
    #: When set, :meth:`summary` carries a ``tenant`` key so per-tenant
    #: digests are distinguishable; when empty the key is omitted entirely,
    #: keeping the legacy golden digests byte-identical.
    tenant: str = ""
    retain_requests: bool = True
    completed_requests: List[Request] = field(default_factory=list)
    reconfigurations: List[ReconfigurationRecord] = field(default_factory=list)
    autoscale_actions: List[AutoscaleRecord] = field(default_factory=list)
    #: Output tokens of every completed batch.
    tokens_generated: int = _counter("digest")
    #: Decoded tokens lost to interruptions and decoded again.  Nothing
    #: counts them yet (``tests/test_counters.py`` lists the exception).
    tokens_recomputed: int = _counter("digest")
    #: Preemption notices received for this system's instances.
    preemption_notices: int = _counter("digest")
    #: Instances that became ready for this system.
    acquisitions: int = _counter("digest")
    #: In-flight batches stopped by a reconfiguration.
    interrupted_batches: int = _counter("digest")
    #: Interrupted batches whose requests went back to the queue uncached.
    rerouted_batches: int = _counter("digest")
    #: Whole-availability-zone outages observed (``ZONE_OUTAGE`` down phases).
    zone_outages: int = _counter("conservation")
    #: Requests whose in-flight batch was torn down and re-queued (they lose
    #: cached progress but are never lost -- the conservation invariant).
    requests_rerouted: int = _counter("conservation")
    #: Requests dropped outright.  SpotServe never drops a request -- every
    #: interrupted batch is re-queued -- so this stays zero and exists as the
    #: accounting bucket the evacuation-conservation regression pins.
    requests_dropped: int = _counter("conservation")
    #: Requests turned away at the admission boundary (overload control);
    #: they never enter the queue or the arrival-rate window.
    requests_rejected: int = _counter("conservation")
    #: Queued requests abandoned by the shedding policy at an adaptation
    #: round (e.g. ``deadline-aware``: their queue age already exceeded the
    #: SLO-derived bound, so serving them would be wasted capacity).
    requests_shed: int = _counter("conservation")
    #: Instances this system requested that the cloud refused with
    #: insufficient-capacity errors (fault injection).
    allocation_refusals: int = _counter("faults")
    #: This system's granted launches that died while still ``LAUNCHING``
    #: (fault injection).
    launch_failures: int = _counter("faults")
    #: Acquisition retries issued by the server's backoff machinery after a
    #: refused or failed acquisition (includes launch-watchdog re-requests).
    acquisition_retries: int = _counter("faults")
    #: Preemption finals that fired *before* their announced grace deadline
    #: (Section 4.2's "earlier than expected" case).
    early_preemptions: int = _counter("faults")
    #: Migrations abandoned because the (possibly degraded) network could no
    #: longer beat the grace deadline; context was rerouted instead.
    migration_fallbacks: int = _counter("faults")
    #: Instances the serving system asked for and *terminally* never
    #: received: autoscaler demand with no retry machinery to chase it, or
    #: demand whose bounded-backoff retries exhausted.
    allocation_shortfall: int = _counter("faults")
    #: Context bytes spilled to the host/object-storage offload tier during
    #: grace windows (tiered migration; zero when no tier is configured).
    bytes_spilled: float = _counter("spill", 0.0)
    #: Spilled bytes successfully restored onto surviving destinations.
    bytes_restored: float = _counter("spill", 0.0)
    #: Spilled bytes abandoned because their destination died before the
    #: restore completed.  At any drained instant
    #: ``bytes_spilled == bytes_restored + bytes_abandoned``.
    bytes_abandoned: float = _counter("spill", 0.0)
    #: Tiered migrations whose destination-side restore completed.
    restores: int = _counter("spill")
    #: Deadline misses where even the offload tier could not fit the grace
    #: window, so the planner fell through to rerouting (each of these also
    #: increments :attr:`migration_fallbacks`).
    spill_fallbacks: int = _counter("spill")
    config_timeline: List[Tuple[float, ParallelConfig]] = field(default_factory=list)
    #: Streaming aggregates, filled by :meth:`record_completion`.
    _completed_count: int = field(default=0, init=False, repr=False)
    _latency_sum: float = field(default=0, init=False, repr=False)
    _latency_max: float = field(default=0.0, init=False, repr=False)
    #: Arrival time and latency of each completed request, in completion
    #: order (two parallel columns).
    _arrivals: array = field(default_factory=lambda: array("d"), init=False, repr=False)
    _latencies: array = field(default_factory=lambda: array("d"), init=False, repr=False)

    # ------------------------------------------------------------------
    # Recording helpers
    # ------------------------------------------------------------------
    def record_completion(self, request: Request) -> None:
        """Record a finished request."""
        self._completed_count += 1
        completion_time = request.completion_time
        if completion_time is not None:
            latency = completion_time - request.arrival_time
            self._latency_sum = self._latency_sum + latency
            if latency > self._latency_max:
                self._latency_max = latency
            self._arrivals.append(request.arrival_time)
            self._latencies.append(latency)
        if self.retain_requests:
            self.completed_requests.append(request)

    def record_config(self, time: float, config: ParallelConfig) -> None:
        """Record the configuration active from *time* onwards."""
        self.config_timeline.append((time, config))

    def record_reconfiguration(self, record: ReconfigurationRecord) -> None:
        """Record one reparallelization."""
        self.reconfigurations.append(record)
        self.record_config(record.time, record.new_config)

    def record_autoscale(self, record: AutoscaleRecord) -> None:
        """Record one autoscaler fleet-sizing action."""
        self.autoscale_actions.append(record)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def latencies(self) -> List[float]:
        """End-to-end latencies of completed requests, in completion order."""
        return self._latencies.tolist()

    def request_timeline(self) -> List[Tuple[float, float]]:
        """``(arrival_time, latency)`` pairs for the per-request plots (Fig. 8g/h)."""
        return sorted(zip(self._arrivals, self._latencies))

    @property
    def completed_count(self) -> int:
        """Number of completed requests."""
        return self._completed_count

    @property
    def total_stall_time(self) -> float:
        """Total serving stall caused by reconfigurations."""
        return sum(record.stall_time for record in self.reconfigurations)

    def counters(self, *groups: str) -> Dict[str, float]:
        """This run's counters in *groups* (every group when none), in declaration order.

        Raises:
            ValueError: If a group names no declared counter.
        """
        declared = [f for f in fields(self) if "group" in f.metadata]
        unknown = set(groups) - {f.metadata["group"] for f in declared}
        if unknown:
            raise ValueError(f"unknown counter groups: {sorted(unknown)}")
        return {
            f.name: getattr(self, f.name)
            for f in declared
            if not groups or f.metadata["group"] in groups
        }

    # ------------------------------------------------------------------
    # Deterministic summary (golden regression tests)
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Flat, deterministic digest of the whole run.

        Contains only values that are exact functions of the seeded
        simulation (no wall-clock, no object identities), so two runs with
        the same seed and trace must produce equal summaries.  Every value
        comes from the streaming aggregates: ``latency_sum`` accumulates in
        completion order exactly like ``sum()`` over the old per-request
        list, so digests stay byte-identical.
        """
        summary: Dict[str, object] = {
            "system": self.system_name,
            "completed": self.completed_count,
            **self.counters("digest"),
            "reconfiguration_count": len(self.reconfigurations),
            "autoscale_action_count": len(self.autoscale_actions),
            "autoscale_net_delta": sum(r.delta for r in self.autoscale_actions),
            "total_stall_time": self.total_stall_time,
            "latency_sum": self._latency_sum,
            "latency_max": self._latency_max,
            "config_timeline": [
                (time, str(config)) for time, config in self.config_timeline
            ],
        }
        if self.tenant:
            summary["tenant"] = self.tenant
        return summary

    def summary_text(self) -> str:
        """Byte-comparable rendering of :meth:`summary` (one ``key=repr`` per line).

        ``repr`` keeps the full precision of every float, so *any* divergence
        between two supposedly identical runs shows up.
        """
        summary = self.summary()
        return "\n".join(f"{key}={summary[key]!r}" for key in sorted(summary))

    def extended_summary(self) -> Dict[str, object]:
        """:meth:`summary` plus the conservation, fault and spill counters.

        Those groups live here instead of in :meth:`summary` so the golden
        sha256 digests pinned before their subsystems existed stay
        byte-identical; outage and admission goldens pin the digest of
        :meth:`extended_summary_text` instead.  The conservation counters
        close the equation ``submitted == completed + unfinished + dropped
        + rejected + shed`` at any simulation instant.
        """
        summary = self.summary()
        summary.update(self.counters("conservation", "faults", "spill"))
        return summary

    def extended_summary_text(self) -> str:
        """Byte-comparable rendering of :meth:`extended_summary`."""
        summary = self.extended_summary()
        return "\n".join(f"{key}={summary[key]!r}" for key in sorted(summary))
