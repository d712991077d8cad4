"""Overload control: request admission and queue shedding.

The heavy-traffic policy benchmark exposed a regime the paper's control
stack has no answer for: *sustained overload*.  Once every autoscaling
policy has saturated the fleet ceiling, the arrival rate still exceeds the
serving capability, so the queue -- and with it every latency percentile --
grows without bound, identically for every policy.  This module provides
the missing layer: an **admission controller** consulted on every request
arrival (when the policy can refuse one; see :meth:`AdmissionPolicy.admit`)
and a **queue-shedding policy** consulted once per adaptation round (the
workload check), both pluggable:

* ``"queue-cap"`` -- :class:`QueueCapPolicy`: reject arrivals while the
  queue is at capacity (classic bounded-buffer admission).
* ``"deadline-aware"`` -- :class:`DeadlineAwarePolicy`: each adaptation
  round, shed queued requests whose queue age already exceeds an
  SLO-derived bound (they could not meet the SLO even if dispatched
  immediately), so the fleet spends its capacity on requests that can
  still be served in time.
* ``"token-bucket"`` -- :class:`TokenBucketPolicy`: token-bucket rate
  limiting whose refill rate adapts every adaptation round to the serving
  throughput the controller estimates for the current configuration --
  i.e. the bucket admits what the fleet can actually serve, computed from
  the same ``estimate_arrival_rate`` window the autoscaler consumes.

Invariants
----------
* **Request conservation.**  Rejected and shed requests are *accounted*,
  never silently lost: at any simulation instant ::

      submitted == completed + unfinished + dropped + rejected + shed

  (``ServingStats.requests_rejected`` / ``requests_shed``; pinned by the
  property test in ``tests/test_admission.py`` under every policy).
* **Post-admission demand.**  Rejected arrivals never enter the serving
  system's arrival-rate window, so the autoscaler and the
  parallelization controller size the fleet for the *admitted* load
  instead of chasing demand the admission controller already turned away.
* **Digest neutrality.**  With admission disabled (``admission=None``)
  the serving system's behavior is byte-identical to a build without this
  module, and a policy that admits everything and sheds nothing leaves
  the golden sha256 digests pinned even though its hooks run
  (``tests/test_admission.py``).  A policy that inherits the admit-all
  :meth:`AdmissionPolicy.admit` is not called per arrival at all.
"""

from __future__ import annotations

from abc import ABC
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional

from ..workload.arrival import check_positive_finite

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..engine.batching import QueueEntry, RequestQueue

#: Queue-depth cap of :class:`QueueCapPolicy` (requests).
QUEUE_CAP = 64

#: Default SLO of :class:`DeadlineAwarePolicy` when the serving system has
#: none configured (seconds; generous for the paper's 512->128 workloads).
DEFAULT_SLO_LATENCY = 120.0

#: Floor of :class:`DeadlineAwarePolicy`'s age bound, as a fraction of the
#: SLO.
MIN_AGE_FRACTION = 0.1

#: Burst capacity of :class:`TokenBucketPolicy` (tokens).
BUCKET_BURST = 16.0

#: Floor of the :class:`TokenBucketPolicy` refill rate (tokens/s).
MIN_BUCKET_RATE = 0.05


class AdmissionSignal(NamedTuple):
    """Serving-state snapshot the admission hooks may consult.

    Arrival-time hooks (:meth:`AdmissionPolicy.admit`) see the queue depth
    at the arrival instant; round hooks (:meth:`AdmissionPolicy.shed` /
    :meth:`AdmissionPolicy.observe_round`) additionally see the control
    stack's current estimates.  All fields are exact functions of the
    seeded simulation, so admission decisions are deterministic.

    One is built per arrival, so the snapshot is a named tuple: it is
    immutable, and it builds without the per-field ``object.__setattr__``
    a frozen dataclass pays.
    """

    #: Simulation time the hook is for: the arrival's own time for
    #: ``admit`` (see :meth:`AdmissionPolicy.admit`), the round's for the
    #: round hooks.
    time: float
    #: Requests waiting in the FIFO queue (in-flight batches excluded).
    queue_depth: int = 0
    #: Arrival rate estimate over the admitted-load window (req/s);
    #: ``0.0`` when unknown (arrival-time hooks do not compute it).
    arrival_rate: float = 0.0
    #: Serving throughput the controller estimates for the current
    #: configuration (req/s); ``0.0`` while nothing is deployed.
    serving_throughput: float = 0.0
    #: Execution-latency estimate of the current configuration (seconds);
    #: ``0.0`` while nothing is deployed.
    execution_latency: float = 0.0
    #: Latency SLO the deployment targets; ``None`` when unconfigured.
    slo_latency: Optional[float] = None


class AdmissionPolicy(ABC):
    """Pluggable overload-control policy.

    Subclasses implement any of the three hooks; the base implementations
    admit everything, shed nothing and ignore round updates, so a policy
    only overrides the decision points it cares about.
    """

    #: Registry/reporting name (also the ``SpotServeOptions.admission`` key).
    name = "base"

    def admit(self, signal: AdmissionSignal) -> bool:
        """Decide whether the arrival *signal* describes may enter the queue.

        Called on every arrival, before it is enqueued or counted in the
        arrival-rate window, when the policy's class overrides this
        method.  The decision reads the serving state, not the request:
        an arrival the serving system takes in without an event of its
        own has no ``Request`` yet (the queue builds one only when a batch
        takes it), and *signal* still carries its own arrival time and the
        queue depth it found.  The serving system checks the override
        once, when it is built: this base admits everything, so a policy
        that inherits it is never called and no signal is built for it.

        Args:
            signal: Arrival-instant snapshot (time, queue depth).

        Returns:
            ``True`` to enqueue the arrival, ``False`` to reject it (the
            server then increments ``ServingStats.requests_rejected``).
        """
        return True

    def shed(self, queue: "RequestQueue", signal: AdmissionSignal) -> List["QueueEntry"]:
        """Remove and return the queued entries that should be abandoned.

        Called once per adaptation round (the workload check), before the
        autoscaler runs, so sizing policies see the post-shed backlog.

        Args:
            queue: The live FIFO request queue (mutated in place).
            signal: Round snapshot including the controller's estimates.

        Returns:
            The entries removed from *queue*, each a ``Request`` or a bare
            arrival time (see :meth:`RequestQueue.shed_before
            <repro.engine.batching.RequestQueue.shed_before>`); the server
            counts them in ``ServingStats.requests_shed``.
        """
        return []

    def observe_round(self, signal: AdmissionSignal) -> None:
        """Adaptation-round feedback hook for adaptive policies.

        Args:
            signal: Round snapshot including the controller's estimates.
        """

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"{type(self).__name__}(name={self.name!r})"


class QueueCapPolicy(AdmissionPolicy):
    """Bounded-buffer admission: reject arrivals while the queue is full.

    The cap (:data:`QUEUE_CAP`) bounds the *queue* only -- requests already
    dispatched in a batch are unaffected -- so the worst-case scheduling
    delay of an admitted request is roughly ``cap / serving_throughput``.
    """

    name = "queue-cap"

    def admit(self, signal: AdmissionSignal) -> bool:
        return signal.queue_depth < QUEUE_CAP


class DeadlineAwarePolicy(AdmissionPolicy):
    """Shed queued requests that can no longer meet the latency SLO.

    Each adaptation round, a request whose queue age exceeds the
    SLO-derived bound ``slo - l_exe(current config)`` is removed: even if
    it were dispatched immediately it would complete past the SLO, so
    serving it would burn capacity that requests still inside their
    deadline need.  The execution-latency term comes from the round
    signal; while nothing is deployed the bound degrades gracefully to
    the full SLO.  :data:`MIN_AGE_FRACTION` floors the bound so a
    pathological ``l_exe >= slo`` estimate cannot shed fresh arrivals.
    """

    name = "deadline-aware"

    def __init__(self, slo_latency: Optional[float] = None) -> None:
        if slo_latency is not None:
            check_positive_finite("slo_latency", slo_latency)
        self.slo_latency = slo_latency

    def _age_bound(self, signal: AdmissionSignal) -> float:
        slo = self.slo_latency
        if slo is None:
            slo = signal.slo_latency if signal.slo_latency else DEFAULT_SLO_LATENCY
        return max(slo - signal.execution_latency, MIN_AGE_FRACTION * slo)

    def shed(self, queue: "RequestQueue", signal: AdmissionSignal) -> List["QueueEntry"]:
        bound = self._age_bound(signal)
        cutoff = signal.time - bound
        if cutoff <= 0:
            return []
        return queue.shed_before(cutoff)


class TokenBucketPolicy(AdmissionPolicy):
    """Token-bucket rate limiting at the admission boundary.

    The bucket holds at most :data:`BUCKET_BURST` tokens and refills
    continuously; each admitted request consumes one token and an arrival
    finding an empty bucket is rejected.  The refill rate *adapts*: every
    adaptation round it is reset to the serving throughput the controller
    estimates for the current configuration (clamped below by
    :data:`MIN_BUCKET_RATE`, the rate before the first estimate), so the
    bucket admits exactly the sustained load the fleet can serve -- the
    admission-side dual of the autoscaler, driven by the same
    adaptation-round signal.
    """

    name = "token-bucket"

    def __init__(self) -> None:
        self._rate = MIN_BUCKET_RATE
        self._tokens = BUCKET_BURST
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(BUCKET_BURST, self._tokens + elapsed * self._rate)
        self._last_refill = now

    def observe_round(self, signal: AdmissionSignal) -> None:
        # Refill at the old rate up to now, then adopt the new estimate so
        # the rate change never applies retroactively.
        self._refill(signal.time)
        if signal.serving_throughput > 0:
            self._rate = max(signal.serving_throughput, MIN_BUCKET_RATE)

    def admit(self, signal: AdmissionSignal) -> bool:
        self._refill(signal.time)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


#: Policy constructors by name (the ``SpotServeOptions.admission`` values).
ADMISSION_POLICIES: Dict[str, type] = {
    QueueCapPolicy.name: QueueCapPolicy,
    DeadlineAwarePolicy.name: DeadlineAwarePolicy,
    TokenBucketPolicy.name: TokenBucketPolicy,
}


def make_admission_policy(policy: str, **params) -> AdmissionPolicy:
    """Construct an admission policy by name.

    Args:
        policy: One of ``"queue-cap"``, ``"deadline-aware"``,
            ``"token-bucket"`` (see :data:`ADMISSION_POLICIES`).
        **params: Forwarded to the policy constructor (``slo_latency``
            for ``deadline-aware``; the other policies take none).

    Returns:
        The constructed :class:`AdmissionPolicy`.

    Raises:
        KeyError: If *policy* names no registered admission policy.
    """
    try:
        cls = ADMISSION_POLICIES[policy]
    except KeyError:
        raise KeyError(
            f"unknown admission policy {policy!r}; available: {sorted(ADMISSION_POLICIES)}"
        ) from None
    return cls(**params)
