"""The Kuhn-Munkres matching substrate of the device mapper."""

from .hungarian import (
    assignment_weight,
    greedy_assignment,
    maximum_weight_assignment,
    minimum_cost_assignment,
)

__all__ = [
    "assignment_weight",
    "greedy_assignment",
    "maximum_weight_assignment",
    "minimum_cost_assignment",
]
