"""Monetary cost accounting and price schedules.

Figure 7 of the paper compares per-token cost and latency of SpotServe and
the baselines against an on-demand-only deployment.  :class:`CostTracker`
keeps one billing record per instance as instances come and go and converts
them into USD, in total and per zone.

Spot markets do not have one fixed price: every availability zone publishes
its own price that drifts over time (price spikes are exactly what a
cost-aware autoscaler arbitrages away from).  :class:`PriceSchedule` models a
piecewise-constant hourly price; billing records carry the schedule of the
zone the instance was launched in, so zone-level price spikes show up in the
accrued cost without any extra bookkeeping in the provider.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .instance import DEFAULT_ZONE, Instance, Market


@dataclass(frozen=True)
class PriceSchedule:
    """A piecewise-constant hourly price over simulated time.

    ``base_price`` applies from time zero; each ``(time, price)`` change point
    switches the hourly price from that timestamp onwards.
    """

    base_price: float
    changes: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.base_price) and self.base_price >= 0):
            raise ValueError(f"prices must be finite and non-negative, got {self.base_price}")
        ordered = tuple(sorted((float(t), float(p)) for t, p in self.changes))
        if not all(
            math.isfinite(t) and t >= 0 and math.isfinite(p) and p >= 0 for t, p in ordered
        ):
            raise ValueError(
                "price change points must have finite, non-negative time and price"
            )
        object.__setattr__(self, "changes", ordered)

    @classmethod
    def flat(cls, price: float) -> "PriceSchedule":
        """A schedule whose price never changes."""
        return cls(base_price=price)

    def price_at(self, time: float) -> float:
        """Hourly price in effect at *time*."""
        price = self.base_price
        for change_time, change_price in self.changes:
            if change_time > time:
                break
            price = change_price
        return price

    def cost_between(self, start: float, end: float) -> float:
        """USD accrued over ``[start, end]`` at the scheduled hourly prices."""
        if end <= start:
            return 0.0
        boundaries = [start]
        boundaries.extend(t for t, _ in self.changes if start < t < end)
        boundaries.append(end)
        total = 0.0
        for left, right in zip(boundaries, boundaries[1:]):
            total += (right - left) / 3600.0 * self.price_at(left)
        return total


@dataclass
class BillingRecord:
    """One instance's billed interval, priced by its zone's market schedule."""

    instance_id: str
    market: Market
    start: float
    schedule: PriceSchedule
    end: Optional[float] = None
    zone: str = DEFAULT_ZONE

    def cost(self, now: float) -> float:
        """Cost in USD accrued up to *now* (or to the interval end)."""
        return self.cost_between(self.start, self.end if self.end is not None else now)

    def cost_between(self, start: float, end: float) -> float:
        """Cost in USD accrued from *start* to *end* at this record's prices."""
        return self.schedule.cost_between(start, end)


class CostTracker:
    """Tracks the monetary cost of every instance used during an experiment."""

    def __init__(self) -> None:
        self._records: Dict[str, BillingRecord] = {}
        self._closed: List[BillingRecord] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def start_billing(self, instance: Instance, time: float, schedule: PriceSchedule) -> None:
        """Begin billing *instance* at *time* (normally its launch time).

        The record accrues at *schedule*'s (possibly time-varying) price:
        the price of the instance's market in its zone.
        """
        if instance.instance_id in self._records:
            raise ValueError(f"instance {instance.instance_id} already billed")
        self._records[instance.instance_id] = BillingRecord(
            instance_id=instance.instance_id,
            market=instance.market,
            start=time,
            schedule=schedule,
            zone=instance.zone,
        )

    def stop_billing(self, instance: Instance, time: float) -> None:
        """Stop billing *instance* at *time* (preemption or release)."""
        record = self._records.pop(instance.instance_id, None)
        if record is None:
            return
        record.end = max(time, record.start)
        self._closed.append(record)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def total_cost(self, now: float) -> float:
        """Total USD spent up to *now*."""
        total = 0.0
        for record in self._closed:
            total += record.cost(now)
        for record in self._records.values():
            total += record.cost(now)
        return total

    def cost_by_zone(self, now: float) -> Dict[str, float]:
        """USD spent per availability zone up to *now*."""
        totals: Dict[str, float] = {}
        for record in list(self._closed) + list(self._records.values()):
            totals[record.zone] = totals.get(record.zone, 0.0) + record.cost(now)
        return totals

    def iter_records(self) -> List[BillingRecord]:
        """Every billing record, closed intervals first then open ones.

        The tenancy layer uses this to apportion fleet cost per tenant: each
        record is split at its instance's handovers and every stretch's
        :meth:`BillingRecord.cost_between` billed to the tenant owning it.
        """
        return list(self._closed) + list(self._records.values())
