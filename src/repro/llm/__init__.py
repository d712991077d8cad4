"""LLM model catalog, memory accounting and analytic cost model."""

from .costmodel import (
    DEFAULT_INPUT_LENGTH,
    DEFAULT_OUTPUT_LENGTH,
    TABLE1_REFERENCE,
    CostModelParams,
    LatencyModel,
)
from .hardware import T4, GPUSpec
from .memory import (
    DEFAULT_ACTIVATION_BYTES,
    DEFAULT_MIGRATION_BUFFER_BYTES,
    DEFAULT_RESERVE_BYTES,
    MemoryModel,
)
from .spec import (
    GPT_20B,
    LLAMA_30B,
    MODEL_CATALOG,
    OPT_6_7B,
    ModelSpec,
    get_model,
)

__all__ = [
    "CostModelParams",
    "DEFAULT_ACTIVATION_BYTES",
    "DEFAULT_INPUT_LENGTH",
    "DEFAULT_MIGRATION_BUFFER_BYTES",
    "DEFAULT_OUTPUT_LENGTH",
    "DEFAULT_RESERVE_BYTES",
    "GPT_20B",
    "GPUSpec",
    "LLAMA_30B",
    "LatencyModel",
    "MODEL_CATALOG",
    "MemoryModel",
    "ModelSpec",
    "OPT_6_7B",
    "T4",
    "TABLE1_REFERENCE",
    "get_model",
]
