"""Discrete-event simulation substrate for the SpotServe reproduction."""

from .engine import Simulator
from .events import Event, EventType
from .network import NetworkModel, NetworkSpec, OffloadTierSpec, Transfer

__all__ = [
    "Event",
    "EventType",
    "NetworkModel",
    "NetworkSpec",
    "OffloadTierSpec",
    "Simulator",
    "Transfer",
]
