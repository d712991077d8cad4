"""MAF-like fluctuating workload generation.

The paper's Section 6.3 replays a segment of the Microsoft Azure Functions
(MAF) production trace, rescaled so its intensity matches the experimental
setup, to study auto-scaling under fluctuating and bursty demand (Figure 8a
and 8b).  The raw MAF dataset is a large external download, so this module
synthesises a rate profile with the same qualitative features the paper
relies on: a baseline load, a pronounced ramp to a peak that overwhelms the
initial configuration, and a decay back below the baseline, with noisy
minute-level variation on top.

The profile is expressed as ``(time, requests/s)`` breakpoints and consumed
by :class:`~repro.workload.arrival.TimeVaryingArrivals`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .arrival import TimeVaryingArrivals


@dataclass(frozen=True)
class MAFProfile:
    """A fluctuating arrival-rate profile."""

    name: str
    breakpoints: Tuple[Tuple[float, float], ...]
    duration: float

    def mean_rate(self) -> float:
        """Time-weighted average rate across the profile."""
        total = 0.0
        points = list(self.breakpoints)
        for index, (start, rate) in enumerate(points):
            end = points[index + 1][0] if index + 1 < len(points) else self.duration
            total += rate * max(end - start, 0.0)
        return total / self.duration

    def rescaled(self, target_mean_rate: float, name: str = "") -> "MAFProfile":
        """Rescale the profile so its mean rate equals *target_mean_rate*.

        This mirrors the paper's "rescale its arrival intensity like prior
        approach to make it compatible with our experiment setup".
        """
        if target_mean_rate <= 0:
            raise ValueError("target_mean_rate must be positive")
        factor = target_mean_rate / self.mean_rate()
        return MAFProfile(
            name=name or f"{self.name}-rescaled",
            breakpoints=tuple((time, rate * factor) for time, rate in self.breakpoints),
            duration=self.duration,
        )

    def to_arrival_process(self, cv: float = 6.0, seed: int = 0) -> TimeVaryingArrivals:
        """Build the bursty arrival process that replays this profile."""
        return TimeVaryingArrivals(self.breakpoints, cv=cv, seed=seed)


def synthesize_maf_profile(
    duration: float = 1080.0,
    base_rate: float = 0.55,
    peak_rate: float = 0.78,
    trough_rate: float = 0.5,
    ramp_start_fraction: float = 0.25,
    peak_fraction: float = 0.45,
    decay_end_fraction: float = 0.7,
    noise: float = 0.03,
    segments: int = 18,
    seed: int = 7,
) -> MAFProfile:
    """Create a MAF-like fluctuating rate profile.

    The defaults follow Figure 8(a)/(b): the load hovers around
    0.55 requests/s, climbs to roughly 0.78 requests/s around 40--50 % of the
    way through the segment (which is what forces the configuration change in
    Figure 8(g)/(h)), then falls back to about 0.5 requests/s.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if not 0 < ramp_start_fraction < peak_fraction < decay_end_fraction < 1:
        raise ValueError("fractions must be increasing and inside (0, 1)")
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, duration, segments, endpoint=False)
    breakpoints: List[Tuple[float, float]] = []
    for time in times:
        fraction = time / duration
        if fraction < ramp_start_fraction:
            rate = base_rate
        elif fraction < peak_fraction:
            progress = (fraction - ramp_start_fraction) / (peak_fraction - ramp_start_fraction)
            rate = base_rate + (peak_rate - base_rate) * progress
        elif fraction < decay_end_fraction:
            progress = (fraction - peak_fraction) / (decay_end_fraction - peak_fraction)
            rate = peak_rate - (peak_rate - trough_rate) * progress
        else:
            rate = trough_rate
        rate = max(rate + rng.normal(0.0, noise), 0.05)
        breakpoints.append((float(time), float(rate)))
    return MAFProfile(name="MAF-synthetic", breakpoints=tuple(breakpoints), duration=duration)
