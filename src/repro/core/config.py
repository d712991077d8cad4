"""Parallel configurations and the configuration search space.

A parallel configuration is the tuple ``C = (D, P, M, B)`` of Section 3.2:
``D`` data-parallel pipelines, ``P`` pipeline-model-parallel stages, ``M``
tensor-model-parallel shards and ``B`` the maximum mini-batch size.  The
parallelization controller explores every configuration that

* uses at most the currently available GPUs,
* respects the model geometry (``P`` at most the layer count, attention
  heads divisible by ``M``), and
* fits in GPU memory (checked by the :class:`~repro.llm.memory.MemoryModel`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index
from typing import List, Optional, Tuple

import numpy as np

from ..llm.memory import MemoryModel
from ..llm.spec import ModelSpec

#: Batch sizes explored by the optimizer (Section 6.1).
DEFAULT_BATCH_SIZES: Tuple[int, ...] = (1, 2, 4, 8)

#: Tensor-parallel degrees worth considering on 4-GPU instances.  The paper
#: explores shards within an instance plus one level of over-sharding (M=8);
#: wider tensor groups are dominated by their collective latency.
DEFAULT_TENSOR_DEGREES: Tuple[int, ...] = (1, 2, 4, 8)

#: Most data-parallel pipelines one configuration may run.
MAX_DATA_DEGREE = 16


@dataclass(frozen=True, order=True)
class ParallelConfig:
    """A parallel configuration ``C = (D, P, M, B)``."""

    data_degree: int
    pipeline_degree: int
    tensor_degree: int
    batch_size: int = 1

    def __post_init__(self) -> None:
        # ``operator.index`` accepts Python and NumPy integers and refuses
        # every float, ``nan`` (which fails any comparison) and ``inf`` too.
        components = (self.data_degree, self.pipeline_degree, self.tensor_degree, self.batch_size)
        try:
            smallest = min(map(index, components))
        except TypeError:
            raise ValueError(f"configuration components must be integers, got {self!r}") from None
        if smallest <= 0:
            raise ValueError("all configuration components must be positive")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_gpus(self) -> int:
        """GPUs used: ``D * P * M``."""
        return self.data_degree * self.pipeline_degree * self.tensor_degree

    @property
    def gpus_per_pipeline(self) -> int:
        """GPUs per data-parallel replica: ``P * M``."""
        return self.pipeline_degree * self.tensor_degree

    def num_instances(self, gpus_per_instance: int = 4) -> int:
        """Instances required (ceiling division)."""
        if gpus_per_instance <= 0:
            raise ValueError("gpus_per_instance must be positive")
        return -(-self.num_gpus // gpus_per_instance)

    def without_batch(self) -> Tuple[int, int, int]:
        """The ``(D, P, M)`` triple, ignoring batch size (Section 3.3)."""
        return (self.data_degree, self.pipeline_degree, self.tensor_degree)

    def is_compatible_with(self, model: ModelSpec) -> bool:
        """Geometry check: ``P`` cannot exceed layers, ``M`` must divide heads."""
        if self.pipeline_degree > model.num_layers:
            return False
        if model.num_heads % self.tensor_degree != 0:
            return False
        return True

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"(D={self.data_degree}, P={self.pipeline_degree}, "
            f"M={self.tensor_degree}, B={self.batch_size})"
        )


class ConfigurationSpace:
    """Enumerates candidate configurations for a model on a GPU fleet.

    The space is laid out once, at construction: every memory-fitting
    ``(P, M, B)`` shape (with ``P`` up to the layer count) is crossed with
    every data degree up to :data:`MAX_DATA_DEGREE`, giving one row per
    configuration of any fleet size.  A fleet's feasible configurations are
    the rows whose ``D * P * M`` GPUs fit on it, so each fleet size is a mask
    over the same rows.  The inputs are fixed at construction.
    """

    def __init__(
        self,
        model: ModelSpec,
        memory_model: Optional[MemoryModel] = None,
        gpus_per_instance: int = 4,
        migration_buffer_bytes: float = 0.0,
    ) -> None:
        self.model = model
        self.memory_model = memory_model or MemoryModel(model)
        self.gpus_per_instance = gpus_per_instance
        self.migration_buffer_bytes = migration_buffer_bytes
        if gpus_per_instance < 1:
            raise ValueError("gpus_per_instance must be >= 1")
        if not math.isfinite(migration_buffer_bytes) or migration_buffer_bytes < 0:
            raise ValueError("migration_buffer_bytes must be finite and non-negative")

        #: The memory-fitting ``(P, M, B)`` shapes, in ``(M, P, B)`` order.
        self.shapes: Tuple[Tuple[int, int, int], ...] = tuple(
            (pipeline_degree, tensor_degree, batch_size)
            for tensor_degree in DEFAULT_TENSOR_DEGREES
            if model.num_heads % tensor_degree == 0
            for pipeline_degree in range(1, model.num_layers + 1)
            for batch_size in DEFAULT_BATCH_SIZES
            if self.memory_model.fits(
                pipeline_degree,
                tensor_degree,
                batch_size,
                migration_buffer_bytes=migration_buffer_bytes,
            )
        )
        pipeline, tensor, batch = np.array(self.shapes, dtype=np.int64).reshape(-1, 3).T
        shape = np.repeat(np.arange(len(self.shapes)), MAX_DATA_DEGREE)
        data = np.tile(np.arange(1, MAX_DATA_DEGREE + 1), len(self.shapes))
        # Rows in the (M, P, D, B) order of a nested enumeration loop, which
        # the controller's tie-breaking relies on; lexsort's last key is
        # the primary one.
        order = np.lexsort((batch[shape], data, pipeline[shape], tensor[shape]))
        #: Per-row int64 columns: the row's index into ``shapes``, its data
        #: degree ``D``, batch size ``B`` and GPU count ``D * P * M``.
        self.row_shape = shape[order]
        self.row_data_degree = data[order]
        self.row_batch_size = batch[self.row_shape]
        self.row_gpus = (
            self.row_data_degree * pipeline[self.row_shape] * tensor[self.row_shape]
        )

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def feasible_rows(self, num_instances: int) -> np.ndarray:
        """Indices of the rows that fit on *num_instances* instances, in order."""
        return np.flatnonzero(self.row_gpus <= num_instances * self.gpus_per_instance)

    def config_at(self, row: int) -> ParallelConfig:
        """The configuration of one row."""
        pipeline_degree, tensor_degree, batch_size = self.shapes[self.row_shape[row]]
        return ParallelConfig(
            int(self.row_data_degree[row]), pipeline_degree, tensor_degree, batch_size
        )

    def feasible_configs(self, num_instances: int) -> List[ParallelConfig]:
        """Every memory-feasible configuration on *num_instances* instances.

        Ordered by tensor degree, then pipeline degree, data degree and batch
        size.  A fresh list is returned so callers may mutate it freely.
        """
        return [self.config_at(row) for row in self.feasible_rows(num_instances)]

    def fits(self, config: ParallelConfig) -> bool:
        """Memory feasibility of *config* (independent of fleet size)."""
        return config.is_compatible_with(self.model) and self.memory_model.fits(
            config.pipeline_degree,
            config.tensor_degree,
            config.batch_size,
            migration_buffer_bytes=self.migration_buffer_bytes,
        )
