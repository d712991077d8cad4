"""Scalar reference for the configuration space's enumeration.

:class:`~repro.core.config.ConfigurationSpace` lays its rows out once and
masks them per fleet size.  Here a fleet's feasible configurations come
from the nested loop over tensor, pipeline and data degrees and batch
sizes, with one memory check per ``(D, P, M, B)``.  The production mask
must return the same configurations in the same order.
"""

from typing import List

from repro.core.config import (
    DEFAULT_BATCH_SIZES,
    DEFAULT_TENSOR_DEGREES,
    MAX_DATA_DEGREE,
    ConfigurationSpace,
    ParallelConfig,
)


def feasible_configs(space: ConfigurationSpace, num_instances: int) -> List[ParallelConfig]:
    """Every memory-feasible configuration on *num_instances* instances."""
    if num_instances <= 0:
        return []
    max_gpus = num_instances * space.gpus_per_instance
    configs: List[ParallelConfig] = []
    for tensor_degree in DEFAULT_TENSOR_DEGREES:
        if space.model.num_heads % tensor_degree != 0:
            continue
        for pipeline_degree in range(1, min(max_gpus, space.model.num_layers) + 1):
            gpus_per_pipeline = pipeline_degree * tensor_degree
            if gpus_per_pipeline > max_gpus:
                continue
            max_data = min(MAX_DATA_DEGREE, max_gpus // gpus_per_pipeline)
            for data_degree in range(1, max_data + 1):
                for batch_size in DEFAULT_BATCH_SIZES:
                    if not space.memory_model.fits(
                        pipeline_degree,
                        tensor_degree,
                        batch_size,
                        migration_buffer_bytes=space.migration_buffer_bytes,
                    ):
                        continue
                    configs.append(
                        ParallelConfig(data_degree, pipeline_degree, tensor_degree, batch_size)
                    )
    return configs
