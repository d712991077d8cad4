"""Seeded, per-zone cloud-fault injection.

The paper's premise is serving on an *unreliable* substrate, but until this
module the simulated cloud only misbehaved in two scripted ways: trace-driven
preemptions and whole-zone outages.  Real clouds also refuse allocation
requests ("insufficient capacity"), lose instances mid-launch, deliver
stragglers that take far longer than the nominal startup delay, reclaim spot
instances *earlier* than the announced grace deadline, and suffer transient
network degradation.  :class:`FaultInjector` models all five as pluggable,
per-zone fault processes so the resilience machinery in
:mod:`repro.core.server` (retry/backoff, launch watchdog, early-preemption
rearrangement, migration fallback) can be driven end-to-end.

Determinism contract
--------------------

Every fault kind in every zone draws from its own named RNG stream seeded
with :func:`repro.sim.rng.derive_seed` from ``(plan.seed, zone, kind)``, so
enabling one fault type never perturbs the draws of another, and runs are
reproducible bit-for-bit from the plan alone.
Probability-zero fault kinds short-circuit *before* drawing, so a plan that
only enables (say) allocation refusals consumes no launch-failure entropy.

Digest-neutrality contract
--------------------------

With no injector installed (the default everywhere), every hook site in the
provider and server is guarded by an ``is None`` check, the network model's
``bandwidth_factor`` stays at 1.0 (a value its arithmetic skips), and the
simulation is byte-identical to the pre-fault code -- the golden digests
pinned in
``tests/test_streaming_equivalence.py`` do not move.  A null plan (all
probabilities zero) keeps the hooks *running* but behavior-free, which is
what the non-vacuous hooks-installed test pins.

Counting
--------

The injector draws faults; each serving system counts the ones that hit
it in its :class:`~repro.core.stats.ServingStats` when they land, so a
launch failure that a zone outage reclaims first is never counted.  The
one total the injector keeps is :attr:`FaultInjector.allocation_refusals`,
which a system's acquirer diffs around each of its own allocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..sim.rng import derive_seed

__all__ = [
    "DegradedWindow",
    "FaultInjector",
    "FaultPlan",
    "ZoneFaultModel",
]


@dataclass(frozen=True)
class ZoneFaultModel:
    """Per-zone fault probabilities and shape parameters.

    All probabilities default to zero, so ``ZoneFaultModel()`` is the null
    model: hooks consult it but never alter behavior.
    """

    #: Probability that any single requested instance is refused with an
    #: insufficient-capacity error (applies to spot *and* on-demand).
    refusal_prob: float = 0.0
    #: Probability that a granted launch dies while still ``LAUNCHING``.
    launch_failure_prob: float = 0.0
    #: Probability that a launch is a straggler (startup delay multiplied).
    straggler_prob: float = 0.0
    #: Maximum startup-delay multiplier for stragglers; the actual
    #: multiplier is drawn uniformly from ``[1, straggler_multiplier]``.
    straggler_multiplier: float = 1.0
    #: Probability that a spot reclaim fires *before* the announced grace
    #: deadline (the Section 4.2 "earlier than expected" case).
    early_preemption_prob: float = 0.0
    #: Earliest early reclaim, as a fraction of the grace window: the
    #: reclaim time is drawn uniformly from
    #: ``[now + frac * grace, deadline)``.
    min_grace_fraction: float = 0.25

    def __post_init__(self) -> None:
        for name in (
            "refusal_prob",
            "launch_failure_prob",
            "straggler_prob",
            "early_preemption_prob",
            "min_grace_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not self.straggler_multiplier >= 1.0:
            raise ValueError(
                f"straggler_multiplier must be >= 1, got {self.straggler_multiplier}"
            )


@dataclass(frozen=True)
class DegradedWindow:
    """A time window during which network bandwidth is divided by a factor."""

    start: float
    end: float
    #: Bandwidth divisor inside the window (2.0 means half bandwidth).
    bandwidth_factor: float

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(
                f"window must start before it ends, got [{self.start}, {self.end})"
            )
        if not self.bandwidth_factor > 0.0:
            raise ValueError(
                f"bandwidth_factor must be positive, got {self.bandwidth_factor}"
            )

    def factor_at(self, time: float) -> float:
        """Return the bandwidth divisor active at *time* (1.0 outside)."""
        if self.start <= time < self.end:
            return self.bandwidth_factor
        return 1.0


@dataclass(frozen=True)
class FaultPlan:
    """A complete, hashable description of one chaos experiment.

    Zone models are encoded as a tuple of ``(zone_name, model)`` pairs so the
    plan can live inside frozen scenario dataclasses and be pickled across
    worker processes unchanged.
    """

    seed: int = 0
    #: Fallback model for zones without an explicit entry (None = no faults).
    default_model: Optional[ZoneFaultModel] = None
    zone_models: Tuple[Tuple[str, ZoneFaultModel], ...] = ()
    degraded_windows: Tuple[DegradedWindow, ...] = ()

    def __post_init__(self) -> None:
        zones = [name for name, _model in self.zone_models]
        repeated = sorted({name for name in zones if zones.count(name) > 1})
        if repeated:
            # model_for would silently ignore every entry after the first.
            raise ValueError(f"zone_models lists a zone more than once: {repeated}")

    def model_for(self, zone: str) -> Optional[ZoneFaultModel]:
        """Return the fault model governing *zone* (or None)."""
        for name, model in self.zone_models:
            if name == zone:
                return model
        return self.default_model


class FaultInjector:
    """Draws per-zone fault outcomes from independent seeded streams.

    One injector instance serves one simulation run.  The provider consults
    it at allocation and launch-scheduling time, the server consults it for
    retry jitter, and each reconfiguration reads :meth:`bandwidth_factor`
    once and stores it on the serving system's network model.  Of the
    faults it draws it totals only :attr:`allocation_refusals`; each
    serving system counts the faults that hit it (see *Counting* above).
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan()
        self._streams: Dict[str, np.random.Generator] = {}
        #: Instances refused so far in the run, over every zone and market.
        self.allocation_refusals = 0

    # ------------------------------------------------------------------
    # streams
    # ------------------------------------------------------------------
    def _stream(self, zone: str, kind: str) -> np.random.Generator:
        """Return the RNG stream for (*zone*, *kind*), creating on first use."""
        name = f"{zone}:{kind}"
        stream = self._streams.get(name)
        if stream is None:
            stream = np.random.default_rng(derive_seed(self.plan.seed, name))
            self._streams[name] = stream
        return stream

    # ------------------------------------------------------------------
    # fault draws (one method per fault kind; all zone-scoped)
    # ------------------------------------------------------------------
    def refused_count(self, zone: str, market: str, requested: int) -> int:
        """How many of *requested* instances the cloud refuses in *zone*.

        Each instance is refused independently with ``refusal_prob``; the
        *market* name only scopes the RNG stream so spot and on-demand
        refusals draw independently.
        """
        model = self.plan.model_for(zone)
        if model is None or model.refusal_prob <= 0.0 or requested <= 0:
            return 0
        stream = self._stream(zone, f"refusal:{market}")
        refused = int(np.count_nonzero(stream.random(requested) < model.refusal_prob))
        self.allocation_refusals += refused
        return refused

    def launch_delay_multiplier(self, zone: str) -> float:
        """Startup-delay multiplier for one launch in *zone* (>= 1.0)."""
        model = self.plan.model_for(zone)
        if model is None or model.straggler_prob <= 0.0:
            return 1.0
        stream = self._stream(zone, "straggler")
        if stream.random() >= model.straggler_prob:
            return 1.0
        span = model.straggler_multiplier - 1.0
        return 1.0 + span * stream.random()

    def launch_failure_at(self, zone: str, now: float, ready_at: float) -> Optional[float]:
        """Time at which a launch in *zone* dies, or None if it survives.

        The failure time is drawn uniformly inside ``(now, ready_at)`` so the
        instance is still ``LAUNCHING`` when it fires.
        """
        model = self.plan.model_for(zone)
        if model is None or model.launch_failure_prob <= 0.0:
            return None
        stream = self._stream(zone, "launch_failure")
        if stream.random() >= model.launch_failure_prob:
            return None
        span = max(ready_at - now, 0.0)
        return now + span * stream.random()

    def early_reclaim_time(self, zone: str, now: float, deadline: float) -> Optional[float]:
        """Actual reclaim time for a preemption announced for *deadline*.

        Returns None to honor the announced deadline, or a time strictly
        inside ``[now + frac * grace, deadline)`` for an early reclaim.
        """
        model = self.plan.model_for(zone)
        if model is None or model.early_preemption_prob <= 0.0:
            return None
        grace = deadline - now
        if grace <= 0.0:
            return None
        stream = self._stream(zone, "early_preemption")
        if stream.random() >= model.early_preemption_prob:
            return None
        earliest = now + model.min_grace_fraction * grace
        reclaim_at = earliest + (deadline - earliest) * stream.random()
        return reclaim_at if reclaim_at < deadline else None

    def bandwidth_factor(self, time: float) -> float:
        """Bandwidth divisor active at *time* (1.0 when undegraded).

        Overlapping windows compound multiplicatively.
        """
        factor = 1.0
        for window in self.plan.degraded_windows:
            factor *= window.factor_at(time)
        return factor

    def retry_jitter(self, zone: str) -> float:
        """Uniform [0,1) draw from the retry-jitter stream for *zone*."""
        return float(self._stream(zone, "retry_jitter").random())
