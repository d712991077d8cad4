"""Preemptible-cloud simulator: instances, pricing, traces, zones, provider."""

from .instance import (
    DEFAULT_ZONE,
    G4DN_12XLARGE,
    Instance,
    InstanceState,
    InstanceType,
    Market,
)
from .manager import InstanceManager
from .pricing import BillingRecord, CostTracker, PriceSchedule
from .provider import CloudProvider
from .zone import OutageWindow, ZoneSpec, single_zone, validate_zones
from .trace import (
    BUILTIN_TRACES,
    AvailabilityTrace,
    TraceEvent,
    TraceEventKind,
    get_trace,
    trace_a_prime,
    trace_as,
    trace_b_prime,
    trace_bs,
)

__all__ = [
    "AvailabilityTrace",
    "BUILTIN_TRACES",
    "BillingRecord",
    "CloudProvider",
    "CostTracker",
    "DEFAULT_ZONE",
    "G4DN_12XLARGE",
    "Instance",
    "InstanceManager",
    "InstanceState",
    "InstanceType",
    "Market",
    "OutageWindow",
    "PriceSchedule",
    "TraceEvent",
    "TraceEventKind",
    "ZoneSpec",
    "get_trace",
    "single_zone",
    "trace_a_prime",
    "trace_as",
    "trace_b_prime",
    "trace_bs",
    "validate_zones",
]
