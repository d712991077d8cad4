"""On-demand-only serving (the cost-comparison reference of Figure 7).

Serving only on on-demand instances removes preemptions entirely but costs
roughly twice as much per hour on the paper's instance type (3.9 $/h vs
1.9 $/h).  Figure 7 sweeps the number of on-demand instances to trade cost
against latency and compares the resulting frontier with the spot-based
systems.

On-demand serving needs no new system logic: it is SpotServe running on a
preemption-free availability trace whose instances are billed at the
on-demand price (``trace_market=Market.ON_DEMAND`` on the provider).  This
module provides the trace.
"""

from __future__ import annotations

from typing import Optional

from ..cloud.trace import AvailabilityTrace


def on_demand_trace(
    num_instances: int, duration: float = 1200.0, name: Optional[str] = None
) -> AvailabilityTrace:
    """A constant-availability trace with *num_instances* and no preemptions."""
    if num_instances <= 0:
        raise ValueError("num_instances must be positive")
    return AvailabilityTrace(
        name=name or f"OnDemand-{num_instances}",
        initial_instances=num_instances,
        events=[],
        duration=duration,
    )

