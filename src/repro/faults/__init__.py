"""Cloud-fault injection: seeded per-zone fault models."""

from .injector import (
    DegradedWindow,
    FaultInjector,
    FaultPlan,
    ZoneFaultModel,
)

__all__ = [
    "DegradedWindow",
    "FaultInjector",
    "FaultPlan",
    "ZoneFaultModel",
]
