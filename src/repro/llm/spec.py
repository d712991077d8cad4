"""Model specifications for the LLMs evaluated in the paper.

Table 1 of the paper evaluates three models:

==========  =======  ==========  ========  ==================
Model       Size     min #GPUs   (P, M)    l_exe(B=1) seconds
==========  =======  ==========  ========  ==================
OPT-6.7B    25.0 GB  4           (1, 4)    5.447
GPT-20B     74.5 GB  12          (3, 4)    14.373
LLaMA-30B   111.8 GB 16          (2, 8)    17.540
==========  =======  ==========  ========  ==================

Sizes correspond to single-precision (fp32) parameters as stated in the
paper's introduction ("16 A100-40GB GPUs to store the model parameters in
single-precision").  This module describes each model's transformer geometry
(layers, hidden size, heads, vocabulary) so the memory model and the
analytical cost model can derive parameter bytes, KV-cache bytes and FLOP
counts from first principles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

GB = 1024 ** 3


@dataclass(frozen=True)
class ModelSpec:
    """Geometry and serving defaults of a decoder-only transformer LLM.

    Attributes
    ----------
    name:
        Human-readable model name, e.g. ``"GPT-20B"``.
    num_layers:
        Number of stacked transformer layers.
    hidden_size:
        Model (embedding) dimension ``H``.
    num_heads:
        Attention heads; ``hidden_size`` must divide evenly by it.
    vocab_size:
        Vocabulary size (drives embedding / LM-head parameters).
    ffn_multiplier:
        FFN inner dimension as a multiple of ``hidden_size`` (4 for GPT/OPT,
        ~2.7 effective for LLaMA's gated FFN but we keep the parameter
        explicit).
    bytes_per_param:
        Bytes per model parameter as deployed (paper serves fp32 = 4;
        fp16 deployments use 2).
    bytes_per_cache_element:
        Bytes per KV-cache element (fp16 = 2 is typical even for fp32
        weights in FasterTransformer).
    max_sequence_length:
        Maximum supported sequence length (context window).
    """

    name: str
    num_layers: int
    hidden_size: int
    num_heads: int
    vocab_size: int = 50272
    ffn_multiplier: float = 4.0
    bytes_per_param: int = 4
    bytes_per_cache_element: int = 2
    max_sequence_length: int = 2048

    def __post_init__(self) -> None:
        if self.num_layers <= 0 or self.hidden_size <= 0 or self.num_heads <= 0:
            raise ValueError("model geometry must be positive")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def params_per_layer(self) -> int:
        """Parameter count of one transformer layer.

        Counts the four attention projections (Q, K, V, O) plus the two FFN
        matrices, plus biases and the two layer norms.
        """
        h = self.hidden_size
        attention = 4 * h * h + 4 * h
        ffn_inner = int(self.ffn_multiplier * h)
        ffn = 2 * h * ffn_inner + ffn_inner + h
        layer_norms = 4 * h
        return attention + ffn + layer_norms

    @property
    def embedding_params(self) -> int:
        """Token embedding + positional embedding + final LM head."""
        return self.vocab_size * self.hidden_size * 2 + self.max_sequence_length * self.hidden_size

    @property
    def total_params(self) -> int:
        """Total parameter count of the model."""
        return self.num_layers * self.params_per_layer + self.embedding_params

    @property
    def total_param_bytes(self) -> float:
        """Total bytes of model parameters at serving precision."""
        return float(self.total_params * self.bytes_per_param)

    @property
    def layer_param_bytes(self) -> float:
        """Bytes of parameters for one transformer layer."""
        return float(self.params_per_layer * self.bytes_per_param)

    def kv_cache_bytes_per_token(self, batch_size: int = 1) -> float:
        """KV-cache bytes for one generated/ingested token across all layers.

        Each layer caches a key and a value vector of ``hidden_size`` elements
        per sequence.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        return float(
            2 * self.num_layers * self.hidden_size * self.bytes_per_cache_element * batch_size
        )

    def kv_cache_bytes(self, sequence_length: int, batch_size: int = 1) -> float:
        """Total KV-cache bytes for *sequence_length* tokens of *batch_size* sequences."""
        if sequence_length < 0:
            raise ValueError("sequence_length must be non-negative")
        return self.kv_cache_bytes_per_token(batch_size) * sequence_length

    def flops_per_token(self, context_length: int) -> float:
        """Approximate forward FLOPs to decode one token given *context_length*.

        Uses the standard ``2 * params`` matmul estimate plus the attention
        score/value terms that grow with context length.
        """
        matmul = 2.0 * self.num_layers * self.params_per_layer
        attention = 4.0 * self.num_layers * self.hidden_size * max(context_length, 1)
        lm_head = 2.0 * self.hidden_size * self.vocab_size
        return matmul + attention + lm_head


# ----------------------------------------------------------------------
# Model catalog (Table 1)
# ----------------------------------------------------------------------
OPT_6_7B = ModelSpec(
    name="OPT-6.7B",
    num_layers=32,
    hidden_size=4096,
    num_heads=32,
    vocab_size=50272,
)

GPT_20B = ModelSpec(
    name="GPT-20B",
    num_layers=44,
    hidden_size=6144,
    num_heads=48,
    vocab_size=50257,
)

# LLaMA's gated (SwiGLU) FFN has three projection matrices; we model it with
# an equivalent two-matrix FFN whose inner dimension is inflated so the total
# parameter bytes match the 111.8 GB reported in Table 1 of the paper.
LLAMA_30B = ModelSpec(
    name="LLaMA-30B",
    num_layers=60,
    hidden_size=6656,
    num_heads=52,
    vocab_size=32000,
    ffn_multiplier=3.2,
)

MODEL_CATALOG: Dict[str, ModelSpec] = {
    spec.name: spec for spec in (OPT_6_7B, GPT_20B, LLAMA_30B)
}


def get_model(name: str) -> ModelSpec:
    """Look up a model spec by name (case-insensitive).

    Raises
    ------
    KeyError
        If the model is not in the catalog.
    """
    for key, spec in MODEL_CATALOG.items():
        if key.lower() == name.lower():
            return spec
    raise KeyError(f"unknown model {name!r}; available: {sorted(MODEL_CATALOG)}")
