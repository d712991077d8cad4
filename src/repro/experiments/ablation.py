"""Ablation presets matching Figure 9.

The paper "starts from SpotServe and gradually disables each system
optimization one by one": first the parallelization controller, then the
migration planner, then the interruption arranger, and finally the device
mapper (leaving a plain system that only keeps model context on the GPUs).
Each preset below is cumulative, exactly like the figure.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.server import SpotServeOptions

#: Order in which components are removed in Figure 9.
ABLATION_ORDER: List[str] = [
    "SpotServe",
    "- Controller",
    "- Migration Planner",
    "- Interruption Arranger",
    "- Device Mapper",
]
#: The :class:`SpotServeOptions` switch each step after the first turns off.
ABLATED_SWITCHES: Tuple[str, ...] = (
    "adaptive_controller",
    "memory_optimized_migration",
    "stateful_recovery",
    "optimal_device_mapping",
)


def ablation_options() -> Dict[str, SpotServeOptions]:
    """Cumulative ablation presets keyed by the labels used in Figure 9.

    Every preset serves on spot instances only (no on-demand mixing).
    """
    return {
        label: SpotServeOptions(**dict.fromkeys(ABLATED_SWITCHES[:step], False))
        for step, label in enumerate(ABLATION_ORDER)
    }
