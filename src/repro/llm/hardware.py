"""GPU hardware specifications used by the cost and memory models.

The paper's evaluation runs on AWS ``g4dn.12xlarge`` instances, each with four
NVIDIA Tesla T4 GPUs.  The analytic cost model only needs a handful of device
numbers (memory capacity, peak compute, memory bandwidth), which this module
records for the T4.
"""

from __future__ import annotations

from dataclasses import dataclass

GB = 1024 ** 3
TFLOP = 1e12


@dataclass(frozen=True)
class GPUSpec:
    """Peak characteristics of a single GPU device.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``"T4"``.
    memory_bytes:
        Device memory capacity in bytes.
    fp16_flops:
        Peak half-precision throughput in FLOP/s (tensor cores).
    fp32_flops:
        Peak single-precision throughput in FLOP/s.
    memory_bandwidth:
        Peak device memory bandwidth in bytes/s.
    """

    name: str
    memory_bytes: float
    fp16_flops: float
    fp32_flops: float
    memory_bandwidth: float

    def __post_init__(self) -> None:
        if min(self.memory_bytes, self.fp16_flops, self.fp32_flops, self.memory_bandwidth) <= 0:
            raise ValueError("all GPU characteristics must be positive")


T4 = GPUSpec(
    name="T4",
    memory_bytes=16 * GB,
    fp16_flops=65 * TFLOP,
    fp32_flops=8.1 * TFLOP,
    memory_bandwidth=300 * GB,
)
