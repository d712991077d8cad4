"""Offline profiler: latency and throughput of candidate configurations.

The paper notes that SpotServe's adaptive optimizer runs online with
negligible overhead because "the latency estimation of different
configurations is done offline in advance".  :class:`OfflineProfiler` plays
that role here: it evaluates the analytic
:class:`~repro.llm.costmodel.LatencyModel` over every ``(P, M, B)`` shape of
a configuration space in one vectorised pass, and turns the latencies into
a throughput column, so the controller builds its cost table once and then
only reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .costmodel import DEFAULT_INPUT_LENGTH, DEFAULT_OUTPUT_LENGTH, LatencyModel
from .memory import MemoryModel

ConfigKey = Tuple[int, int, int, int]  # (D, P, M, B)


@dataclass(frozen=True)
class ProfileEntry:
    """Performance numbers for one parallel configuration."""

    data_degree: int
    pipeline_degree: int
    tensor_degree: int
    batch_size: int
    latency: float
    throughput: float

    @property
    def num_gpus(self) -> int:
        """GPUs used by this configuration."""
        return self.data_degree * self.pipeline_degree * self.tensor_degree

    @property
    def key(self) -> ConfigKey:
        """Tuple key ``(D, P, M, B)``."""
        return (
            self.data_degree,
            self.pipeline_degree,
            self.tensor_degree,
            self.batch_size,
        )


class OfflineProfiler:
    """Cost-model estimates of configurations at the paper's sequence lengths.

    Every estimate serves a ``DEFAULT_INPUT_LENGTH``-token prompt and
    decodes ``DEFAULT_OUTPUT_LENGTH`` tokens.  Which configurations fit in
    memory is the configuration space's question: the profiler keeps
    ``memory_model`` but never consults it.
    """

    def __init__(
        self,
        latency_model: LatencyModel,
        memory_model: Optional[MemoryModel] = None,
    ) -> None:
        self.latency_model = latency_model
        self.memory_model = memory_model or MemoryModel(latency_model.model, latency_model.gpu)

    def profile(
        self,
        data_degree: int,
        pipeline_degree: int,
        tensor_degree: int,
        batch_size: int,
    ) -> ProfileEntry:
        """The profile entry of one configuration."""
        latency = self.latency_model.l_exe(
            pipeline_degree,
            tensor_degree,
            batch_size,
            DEFAULT_INPUT_LENGTH,
            DEFAULT_OUTPUT_LENGTH,
        )
        return ProfileEntry(
            data_degree=data_degree,
            pipeline_degree=pipeline_degree,
            tensor_degree=tensor_degree,
            batch_size=batch_size,
            latency=latency,
            throughput=self.latency_model.throughput(
                data_degree,
                pipeline_degree,
                tensor_degree,
                batch_size,
                DEFAULT_INPUT_LENGTH,
                DEFAULT_OUTPUT_LENGTH,
            ),
        )

    def latencies(self, shapes: Sequence[Tuple[int, int, int]]) -> np.ndarray:
        """``l_exe`` of every ``(P, M, B)`` shape, in one vectorised pass.

        Element ``i`` equals :meth:`profile`'s latency for that shape.
        """
        return self.latency_model.l_exe_many(
            shapes, DEFAULT_INPUT_LENGTH, DEFAULT_OUTPUT_LENGTH
        )

    @staticmethod
    def throughputs(
        data_degrees: np.ndarray, batch_sizes: np.ndarray, latencies: np.ndarray
    ) -> np.ndarray:
        """``phi(C) = D * B / l_exe`` per row (inf where ``l_exe <= 0``).

        The same operations as :meth:`LatencyModel.throughput`, so each
        element equals :meth:`profile`'s throughput bit for bit.
        """
        with np.errstate(divide="ignore"):
            return np.where(
                latencies > 0, (data_degrees * batch_sizes) / latencies, float("inf")
            )
