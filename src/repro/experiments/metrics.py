"""Latency statistics used throughout the evaluation.

The paper reports the average latency together with a ladder of tail
percentiles (P90, P95, P96, P97, P98, P99) for every system/trace/model
combination (Figures 6, 8 and 9).  :class:`LatencyStats` computes exactly
those numbers from a list of per-request latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

#: Tail percentiles reported on the x-axis of Figures 6 and 8.
REPORTED_PERCENTILES = (90, 95, 96, 97, 98, 99)


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics over a set of request latencies (seconds)."""

    count: int
    mean: float
    minimum: float
    maximum: float
    percentiles: Dict[int, float]

    @classmethod
    def from_latencies(cls, latencies: Sequence[float]) -> "LatencyStats":
        """Compute statistics from raw latencies (empty input gives NaNs)."""
        values = np.asarray(list(latencies), dtype=float)
        if values.size == 0:
            nan = float("nan")
            return cls(0, nan, nan, nan, {p: nan for p in REPORTED_PERCENTILES})
        return cls(
            count=int(values.size),
            mean=float(values.mean()),
            minimum=float(values.min()),
            maximum=float(values.max()),
            percentiles={
                p: float(np.percentile(values, p)) for p in REPORTED_PERCENTILES
            },
        )

    @property
    def p99(self) -> float:
        """99th percentile tail latency (the paper's headline metric)."""
        return self.percentiles[99]
