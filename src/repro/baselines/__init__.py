"""Baseline serving systems used in the paper's evaluation."""

from .ondemand import on_demand_trace
from .reparallelization import ReparallelizationSystem
from .rerouting import RequestReroutingSystem

__all__ = [
    "ReparallelizationSystem",
    "RequestReroutingSystem",
    "on_demand_trace",
]
