"""Dynamic fleet autoscaling across availability zones.

The paper's Algorithm 1 reacts to *supply* changes (preemptions and
acquisitions); a production deployment must also react to *demand*: grow the
fleet when traffic ramps and shed instances when it ebbs, and do so in the
cheapest zone that still has capacity.  This module provides that layer:

* :class:`AutoscaleSignal` -- a snapshot of the serving system each
  adaptation round (arrival rate, estimated serving throughput, queue depth,
  per-zone fleet/price/capacity views),
* pluggable sizing policies deciding *how many* instances the fleet should
  have: :class:`TargetUtilizationPolicy` (keep arrival/throughput near a
  target), :class:`QueueLatencyPolicy` (bound the estimated queueing delay)
  and :class:`CostAwarePolicy` (consult the offline-profiled cost model via
  the :class:`~repro.core.controller.ParallelizationController` for the
  smallest fleet that sustains the demand),
* :class:`Autoscaler` -- wraps a policy with min/max fleet bounds, a
  cooldown, and the *zone arbitrage* step: acquisitions go to the cheapest
  zones with free capacity, releases come from the most expensive zones
  first.

The serving system consults the autoscaler on every workload check (the
paper's adaptation round); the resulting per-zone acquire/release requests
are executed by the :class:`~repro.cloud.manager.InstanceManager`, and the
parallelization controller then re-optimises the configuration for whatever
fleet materialises.

Invariant: the ``arrival_rate`` in the signal is the **post-admission
effective demand** -- requests rejected by the overload controller
(:mod:`repro.core.admission`) never enter the arrival-rate window, and the
queue-shedding hook runs *before* the autoscaler each round -- so sizing
policies provision for the load that will actually be served instead of
chasing demand the admission boundary already turned away.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..workload.arrival import check_non_negative_finite
from .controller import ParallelizationController

#: Utilization :class:`TargetUtilizationPolicy` steers the fleet toward.
TARGET_UTILIZATION = 0.7
#: Half-width of the band around :data:`TARGET_UTILIZATION` inside which
#: :class:`TargetUtilizationPolicy` holds the fleet.
UTILIZATION_DEAD_BAND = 0.1
#: Estimated queue drain delay above which :class:`QueueLatencyPolicy`
#: grows the fleet (seconds).
MAX_QUEUE_DELAY = 60.0
#: Utilization below which :class:`QueueLatencyPolicy` sheds an instance
#: from a fleet with an empty queue.
SCALE_DOWN_UTILIZATION = 0.5
#: Demand multiplier :class:`CostAwarePolicy` provisions for.
COST_AWARE_HEADROOM = 1.1
#: Fleet size :class:`CostAwarePolicy` probes up to at least; the factory
#: raises the probe to an autoscaler bound above it.
MIN_PROBE_INSTANCES = 32
#: Scale-down cooldown as a multiple of the scale-up cooldown.
SCALE_DOWN_COOLDOWN_FACTOR = 2.0


@dataclass(frozen=True)
class ZoneView:
    """Snapshot of one availability zone at decision time.

    ``releasable`` counts instances that could actually be given back right
    now (held, ready, not hosting a live pipeline).
    """

    name: str
    capacity_remaining: int
    spot_price: float
    on_demand_price: float
    releasable: int


@dataclass(frozen=True)
class AutoscaleSignal:
    """Everything a sizing policy may look at for one adaptation round.

    ``current_instances`` counts *usable* instances (what is serving now);
    ``pending_instances`` counts granted instances still inside their
    startup delay, so repeated rounds do not re-request capacity that is
    already on its way.  ``pending_retries`` counts acquisitions the server
    is about to re-request after a refusal or launch failure (backoff in
    flight), so the autoscaler never double-requests capacity that a retry
    will also ask for.
    """

    time: float
    arrival_rate: float
    serving_throughput: float
    queue_depth: int
    current_instances: int
    gpus_per_instance: int
    pending_instances: int = 0
    pending_retries: int = 0
    #: Whether extra *spot* requests can be granted; when False every grant
    #: falls through to the on-demand market, so zone arbitrage must compare
    #: on-demand prices instead of spot prices.
    spot_requests_allowed: bool = True
    zones: Tuple[ZoneView, ...] = ()

    @property
    def utilization(self) -> float:
        """Demand over capacity (``inf`` when nothing is serving)."""
        if self.serving_throughput <= 0:
            return float("inf") if self.arrival_rate > 0 else 0.0
        return self.arrival_rate / self.serving_throughput


@dataclass(frozen=True)
class AutoscaleDecision:
    """Per-zone acquire/release requests produced by one autoscaler round."""

    acquire: Dict[str, int] = field(default_factory=dict)
    release: Dict[str, int] = field(default_factory=dict)
    desired_instances: int = 0
    reason: str = ""

    @property
    def is_noop(self) -> bool:
        """True when the fleet is left untouched."""
        return not self.acquire and not self.release


class AutoscalePolicy(ABC):
    """Decides the *total* fleet size; zone placement is the Autoscaler's job."""

    name = "base"

    @abstractmethod
    def desired_instances(self, signal: AutoscaleSignal) -> int:
        """Fleet size this policy wants, before bounds/capacity clamping."""


class TargetUtilizationPolicy(AutoscalePolicy):
    """Scale so that arrival rate / serving throughput approaches a target.

    The classic cluster-autoscaler rule: ``desired = ceil(current *
    utilization / TARGET_UTILIZATION)``.  A dead band around the target
    suppresses oscillation between adjacent fleet sizes.
    """

    name = "target-utilization"

    def desired_instances(self, signal: AutoscaleSignal) -> int:
        """Fleet size that brings utilization back to the target band."""
        current = max(signal.current_instances, 1)
        utilization = signal.utilization
        if utilization == float("inf"):
            return current + 1
        if abs(utilization - TARGET_UTILIZATION) <= UTILIZATION_DEAD_BAND:
            return current
        return max(int(math.ceil(current * utilization / TARGET_UTILIZATION)), 1)


class QueueLatencyPolicy(AutoscalePolicy):
    """Bound the estimated queueing delay of waiting requests.

    The backlog drains at the serving throughput, so ``queue_depth /
    throughput`` estimates the wait of the last queued request.  Above
    :data:`MAX_QUEUE_DELAY` the policy adds instances proportionally to the
    excess; with an empty queue and a utilization below
    :data:`SCALE_DOWN_UTILIZATION` it sheds one instance per round (slow
    down, fast up).
    """

    name = "queue-latency"

    def desired_instances(self, signal: AutoscaleSignal) -> int:
        """Fleet size that bounds the estimated queue drain delay."""
        current = max(signal.current_instances, 1)
        if signal.serving_throughput <= 0:
            return current + 1 if signal.queue_depth > 0 else current
        queue_delay = signal.queue_depth / signal.serving_throughput
        if queue_delay > MAX_QUEUE_DELAY:
            excess = queue_delay / MAX_QUEUE_DELAY
            return current + max(int(math.ceil(excess)) - 1, 1)
        if signal.queue_depth == 0 and signal.utilization < SCALE_DOWN_UTILIZATION:
            return current - 1
        return current


class CostAwarePolicy(AutoscalePolicy):
    """Smallest fleet that sustains the demand.

    Consults the offline-profiled cost model through the parallelization
    controller: for each candidate fleet size up to ``max_probe_instances``
    the controller proposes the best configuration, and the first size
    whose throughput covers the arrival rate (with
    :data:`COST_AWARE_HEADROOM`) wins.
    """

    name = "cost-aware"

    def __init__(
        self,
        controller: ParallelizationController,
        max_probe_instances: int = MIN_PROBE_INSTANCES,
    ) -> None:
        self.controller = controller
        self.max_probe_instances = max_probe_instances
        self._best_by_count: Optional[Dict[int, float]] = None

    def _best_throughput_by_count(self) -> Dict[int, float]:
        """Best sustained throughput per fleet size up to the probe cap.

        One sweep of the configuration space at the cap covers every smaller
        fleet too (a config needing n instances is reachable by every count
        >= n), so the smallest sustaining fleet falls out of a single
        enumeration instead of one optimizer run per candidate.  Throughput,
        execution latency and instance count are all independent of the
        arrival rate, so the sweep runs once -- the fluctuating rate that
        changes every round cannot change this table, only *where* the
        demand threshold lands in it.
        """
        if self._best_by_count is None:
            best_by_count: Dict[int, float] = {}
            for config in self.controller.config_space.feasible_configs(
                self.max_probe_instances
            ):
                estimate = self.controller.estimate(config, 0.0)
                if estimate.execution_latency == float("inf"):
                    continue
                n = estimate.num_instances
                best_by_count[n] = max(best_by_count.get(n, 0.0), estimate.throughput)
            self._best_by_count = best_by_count
        return self._best_by_count

    def desired_instances(self, signal: AutoscaleSignal) -> int:
        """Smallest fleet whose profiled throughput sustains the demand."""
        demand = signal.arrival_rate * COST_AWARE_HEADROOM
        best_by_count = self._best_throughput_by_count()
        best_feasible: Optional[int] = None
        reachable_best = 0.0
        for count in range(1, self.max_probe_instances + 1):
            if count in best_by_count and best_by_count[count] > reachable_best:
                reachable_best = best_by_count[count]
                best_feasible = count
            if best_feasible is not None and reachable_best >= demand:
                return count
        # Nothing sustains the demand within the probe: run the *smallest*
        # fleet that reaches the best attainable throughput -- larger fleets
        # whose configs are all slower would only add idle cost.
        return best_feasible if best_feasible is not None else max(signal.current_instances, 1)


#: Zone-arbitrage directions: ``"cheapest"`` acquires in the cheapest zones
#: first and releases from the priciest (cost-minimising, the default);
#: ``"priciest"`` inverts both -- expensive zones tend to be the calm,
#: capacity-rich ones, so this models a stability-seeking deployment and
#: gives the policy benchmark a head-to-head arbitrage comparison.
ARBITRAGE_MODES = ("cheapest", "priciest")


class Autoscaler:
    """Applies a sizing policy and arbitrages the delta across zones."""

    def __init__(
        self,
        policy: AutoscalePolicy,
        min_instances: int = 1,
        max_instances: int = 32,
        cooldown: float = 60.0,
        arbitrage: str = "cheapest",
    ) -> None:
        if min_instances < 0 or max_instances < min_instances:
            raise ValueError("need 0 <= min_instances <= max_instances")
        check_non_negative_finite("cooldown", cooldown)
        if arbitrage not in ARBITRAGE_MODES:
            raise ValueError(
                f"unknown arbitrage mode {arbitrage!r}; available: {ARBITRAGE_MODES}"
            )
        self.policy = policy
        self.min_instances = min_instances
        self.max_instances = max_instances
        self.arbitrage = arbitrage
        self.cooldown = cooldown
        self._last_action_time: Optional[float] = None
        self._previous_action_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def plan(self, signal: AutoscaleSignal) -> AutoscaleDecision:
        """One autoscaling round: size the fleet, then place the delta.

        Growth is measured against the *committed* fleet (usable plus still
        launching) so capacity already on its way is never re-requested;
        shrinking is measured against the usable fleet only, since launching
        instances cannot be released yet.
        """
        desired = self.policy.desired_instances(signal)
        desired = min(max(desired, self.min_instances), self.max_instances)
        committed = (
            signal.current_instances
            + signal.pending_instances
            + signal.pending_retries
        )
        reason = (
            f"{self.policy.name}: desired={desired} current={signal.current_instances}"
            f"{f'+{signal.pending_instances} launching' if signal.pending_instances else ''}"
            f"{f'+{signal.pending_retries} retrying' if signal.pending_retries else ''}"
        )
        if desired > committed:
            if self._in_cooldown(signal.time, scaling_down=False):
                return AutoscaleDecision(
                    desired_instances=desired, reason=reason + " (cooldown)"
                )
            acquire = self._distribute_acquire(
                desired - committed,
                signal.zones,
                signal.spot_requests_allowed,
                prefer_priciest=self.arbitrage == "priciest",
            )
            if not acquire:
                return AutoscaleDecision(
                    desired_instances=desired, reason=reason + " (no capacity)"
                )
            self._arm_cooldown(signal.time)
            return AutoscaleDecision(
                acquire=acquire, desired_instances=desired, reason=reason
            )
        if desired < signal.current_instances:
            if self._in_cooldown(signal.time, scaling_down=True):
                return AutoscaleDecision(
                    desired_instances=desired, reason=reason + " (cooldown)"
                )
            release = self._distribute_release(
                signal.current_instances - desired,
                signal.zones,
                signal.spot_requests_allowed,
                prefer_cheapest=self.arbitrage == "priciest",
            )
            if not release:
                return AutoscaleDecision(
                    desired_instances=desired, reason=reason + " (nothing releasable)"
                )
            self._arm_cooldown(signal.time)
            return AutoscaleDecision(
                release=release, desired_instances=desired, reason=reason
            )
        return AutoscaleDecision(desired_instances=desired, reason=reason)

    def _arm_cooldown(self, time: float) -> None:
        self._previous_action_time = self._last_action_time
        self._last_action_time = time

    def cancel_last_action(self, time: float) -> None:
        """Roll back the cooldown armed at *time*.

        Called by the executor when none of the decision could be applied
        (e.g. every grant failed), so a phantom action does not suppress
        real scaling for a whole cooldown window.
        """
        if self._last_action_time == time:
            self._last_action_time = self._previous_action_time

    def _in_cooldown(self, time: float, scaling_down: bool) -> bool:
        if self._last_action_time is None:
            return False
        window = self.cooldown
        if scaling_down:
            window *= SCALE_DOWN_COOLDOWN_FACTOR
        return time - self._last_action_time < window

    # ------------------------------------------------------------------
    # Zone arbitrage
    # ------------------------------------------------------------------
    @staticmethod
    def _distribute_acquire(
        count: int,
        zones: Sequence[ZoneView],
        spot_allowed: bool = True,
        prefer_priciest: bool = False,
    ) -> Dict[str, int]:
        """Send acquisitions to the cheapest zones with free capacity.

        "Cheapest" means the price of the market the grant will actually
        come from: the spot price when extra spot requests are possible,
        the on-demand price otherwise.  ``prefer_priciest`` inverts the
        ordering (the ``"priciest"`` arbitrage mode).
        """
        if not zones:
            return {}

        sign = -1.0 if prefer_priciest else 1.0

        def price(zone: ZoneView) -> float:
            """Price of the market the grants would actually come from."""
            return zone.spot_price if spot_allowed else zone.on_demand_price

        acquire: Dict[str, int] = {}
        remaining = count
        for zone in sorted(zones, key=lambda z: (sign * price(z), z.name)):
            room = max(zone.capacity_remaining, 0)
            take = min(remaining, room)
            if take > 0:
                acquire[zone.name] = take
                remaining -= take
            if remaining == 0:
                break
        return acquire

    @staticmethod
    def _distribute_release(
        count: int,
        zones: Sequence[ZoneView],
        spot_allowed: bool = True,
        prefer_cheapest: bool = False,
    ) -> Dict[str, int]:
        """Release from the most expensive zones first.

        "Most expensive" uses the price of the market the fleet is billed
        in (spot normally, on-demand when spot requests are closed).  Only
        *releasable* instances count, so a pricey zone whose fleet is pinned
        by live pipelines is skipped and the release spills over to the next
        zone instead of silently no-oping.  ``prefer_cheapest`` inverts the
        ordering (the ``"priciest"`` arbitrage mode sheds cheap-zone
        capacity first).
        """
        if not zones:
            return {}

        sign = 1.0 if prefer_cheapest else -1.0

        def price(zone: ZoneView) -> float:
            """Price of the market the releases would give back."""
            return zone.spot_price if spot_allowed else zone.on_demand_price

        release: Dict[str, int] = {}
        remaining = count
        for zone in sorted(zones, key=lambda z: (sign * price(z), z.name)):
            take = min(remaining, max(zone.releasable, 0))
            if take > 0:
                release[zone.name] = take
                remaining -= take
            if remaining == 0:
                break
        return release


#: Policy names accepted by :func:`make_autoscaler` (and SpotServeOptions).
POLICY_NAMES = ("target-utilization", "queue-latency", "cost-aware")


def make_policy(
    name: str,
    controller: Optional[ParallelizationController] = None,
    max_probe_instances: int = MIN_PROBE_INSTANCES,
) -> AutoscalePolicy:
    """Instantiate a sizing policy by name.

    ``controller`` is required for the cost-aware policy (it consults the
    offline-profiled cost model through it), which probes fleets up to
    ``max_probe_instances``.
    """
    key = name.lower().replace("_", "-")
    if key == "target-utilization":
        return TargetUtilizationPolicy()
    if key == "queue-latency":
        return QueueLatencyPolicy()
    if key == "cost-aware":
        if controller is None:
            raise ValueError("the cost-aware policy needs a ParallelizationController")
        return CostAwarePolicy(controller, max_probe_instances)
    raise KeyError(f"unknown autoscaling policy {name!r}; available: {POLICY_NAMES}")


def make_autoscaler(
    policy: str,
    controller: Optional[ParallelizationController] = None,
    min_instances: int = 1,
    max_instances: int = 32,
    cooldown: float = 60.0,
    arbitrage: str = "cheapest",
) -> Autoscaler:
    """Convenience constructor: policy by name plus autoscaler bounds.

    The cost-aware policy probes up to the larger of ``max_instances`` and
    :data:`MIN_PROBE_INSTANCES`, so every fleet the bounds allow is
    reachable.
    """
    return Autoscaler(
        make_policy(
            policy,
            controller=controller,
            max_probe_instances=max(max_instances, MIN_PROBE_INSTANCES),
        ),
        min_instances=min_instances,
        max_instances=max_instances,
        cooldown=cooldown,
        arbitrage=arbitrage,
    )
