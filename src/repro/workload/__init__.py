"""Request workloads: arrival processes and request objects."""

from .arrival import (
    DEFAULT_ARRIVAL_RATES,
    ArrivalProcess,
    FixedArrivals,
    GammaArrivals,
    TimeVaryingArrivals,
    default_rate_for,
)
from .maf import MAFProfile, synthesize_maf_profile
from .request import DEFAULT_INPUT_TOKENS, DEFAULT_OUTPUT_TOKENS, Request

__all__ = [
    "ArrivalProcess",
    "DEFAULT_ARRIVAL_RATES",
    "DEFAULT_INPUT_TOKENS",
    "DEFAULT_OUTPUT_TOKENS",
    "FixedArrivals",
    "GammaArrivals",
    "MAFProfile",
    "Request",
    "TimeVaryingArrivals",
    "default_rate_for",
    "synthesize_maf_profile",
]
