"""Cloud GPU instances and instance types.

The paper's evaluation uses AWS ``g4dn.12xlarge`` instances (four T4 GPUs
each) in two markets: *spot* (cheap, preemptible, 30 s grace period) and
*on-demand* (expensive, never preempted).  These classes model exactly the
instance attributes SpotServe observes: identity, GPU inventory, market,
lifecycle state and the timestamps of lifecycle transitions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from ..llm.hardware import GPUSpec, T4


class Market(Enum):
    """Purchasing model of an instance."""

    SPOT = "spot"
    ON_DEMAND = "on_demand"


class InstanceState(Enum):
    """Lifecycle of a cloud instance as seen by the serving system."""

    LAUNCHING = "launching"
    RUNNING = "running"
    GRACE_PERIOD = "grace_period"
    PREEMPTED = "preempted"
    RELEASED = "released"


@dataclass(frozen=True)
class InstanceType:
    """A purchasable machine shape.

    Attributes
    ----------
    name:
        Cloud SKU, e.g. ``"g4dn.12xlarge"``.
    gpus_per_instance:
        Number of GPUs on the machine.
    gpu:
        The GPU device type installed.
    spot_price_per_hour / on_demand_price_per_hour:
        Hourly prices in USD.  The paper quotes 1.9 $/h spot and 3.9 $/h
        on-demand for g4dn.12xlarge.
    grace_period:
        Seconds between the preemption notice and the instance being
        reclaimed (30 s on AWS/Azure).
    startup_delay:
        Seconds between an allocation being granted and the VM being usable.
    """

    name: str = "g4dn.12xlarge"
    gpus_per_instance: int = 4
    gpu: GPUSpec = T4
    spot_price_per_hour: float = 1.9
    on_demand_price_per_hour: float = 3.9
    grace_period: float = 30.0
    startup_delay: float = 40.0

    def __post_init__(self) -> None:
        if self.gpus_per_instance <= 0:
            raise ValueError("instances must have at least one GPU")
        prices = (self.spot_price_per_hour, self.on_demand_price_per_hour)
        if not all(math.isfinite(p) and p >= 0 for p in prices):
            raise ValueError(f"prices must be finite and non-negative, got {prices}")
        delays = (self.grace_period, self.startup_delay)
        if not all(math.isfinite(d) and d >= 0 for d in delays):
            raise ValueError(
                f"grace period and startup delay must be finite and non-negative, got {delays}"
            )


G4DN_12XLARGE = InstanceType()

_instance_ids = itertools.count()


def _next_instance_id(prefix: str) -> str:
    return f"{prefix}-{next(_instance_ids):04d}"


#: Zone name used by single-zone deployments (the seed behaviour).
DEFAULT_ZONE = "default"


@dataclass
class Instance:
    """A single allocated cloud instance.

    ``zone`` names the availability zone the instance was launched in; the
    network model charges cross-zone migration traffic at a lower bandwidth
    and the cost tracker bills at the zone's (possibly time-varying) price.
    """

    instance_type: InstanceType
    market: Market
    instance_id: str = ""
    state: InstanceState = InstanceState.LAUNCHING
    launch_time: float = 0.0
    ready_time: Optional[float] = None
    preemption_notice_time: Optional[float] = None
    termination_time: Optional[float] = None
    zone: str = DEFAULT_ZONE

    def __post_init__(self) -> None:
        if not self.instance_id:
            prefix = "spot" if self.market is Market.SPOT else "ondemand"
            if self.zone != DEFAULT_ZONE:
                prefix = f"{self.zone}-{prefix}"
            self.instance_id = _next_instance_id(prefix)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_gpus(self) -> int:
        """GPUs on this instance."""
        return self.instance_type.gpus_per_instance

    @property
    def gpu_ids(self) -> List[Tuple[str, int]]:
        """Device identifiers ``(instance_id, gpu_index)`` for every GPU."""
        return [(self.instance_id, index) for index in range(self.num_gpus)]

    @property
    def is_usable(self) -> bool:
        """True while the instance can run inference (including its grace period)."""
        return self.state in (InstanceState.RUNNING, InstanceState.GRACE_PERIOD)

    @property
    def is_launching(self) -> bool:
        """True while the VM is still booting (granted but not yet usable).

        Launching instances are the ones a launch watchdog has to police:
        they can straggle or die before ever serving a request.
        """
        return self.state is InstanceState.LAUNCHING

    @property
    def is_alive(self) -> bool:
        """True until the instance is preempted or released."""
        return self.state not in (InstanceState.PREEMPTED, InstanceState.RELEASED)

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def mark_ready(self, time: float) -> None:
        """The VM finished booting and can host an inference engine."""
        if self.state is not InstanceState.LAUNCHING:
            raise ValueError(f"cannot mark {self.state} instance ready")
        self.state = InstanceState.RUNNING
        self.ready_time = time

    def notify_preemption(self, time: float) -> float:
        """Record a preemption notice; returns the reclaim deadline."""
        if self.market is not Market.SPOT:
            raise ValueError("on-demand instances are never preempted")
        if not self.is_alive:
            raise ValueError("instance already terminated")
        self.state = InstanceState.GRACE_PERIOD
        self.preemption_notice_time = time
        return time + self.instance_type.grace_period

    def preempt(self, time: float) -> None:
        """The cloud reclaims the instance (end of grace period)."""
        if self.market is not Market.SPOT:
            raise ValueError("on-demand instances are never preempted")
        self.state = InstanceState.PREEMPTED
        self.termination_time = time

    def fail(self, time: float) -> None:
        """The cloud loses the instance to a failure (e.g. a zone outage).

        Unlike spot preemption this can hit any market and any live state --
        an availability-zone outage takes down on-demand and still-launching
        instances alike.
        """
        if not self.is_alive:
            raise ValueError("instance already terminated")
        self.state = InstanceState.PREEMPTED
        self.termination_time = time

    def release(self, time: float) -> None:
        """The serving system voluntarily gives the instance back."""
        if not self.is_alive:
            raise ValueError("instance already terminated")
        self.state = InstanceState.RELEASED
        self.termination_time = time

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Instance({self.instance_id}, {self.market.value}, "
            f"{self.state.value}, zone={self.zone}, gpus={self.num_gpus})"
        )
