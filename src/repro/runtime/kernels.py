"""GPU kernel taxonomy and compute-time model (paper Fig. 5 categories).

The paper's nsys characterization groups kernels into GEMM (Tensor-Core
matrix multiplies, the majority), element-wise, transform/memory
(memory-heavy layout ops), weight update (optimizer), and the NCCL
communication kernels.  The executor emits steps tagged with these kinds
so the timeline telemetry can render Fig.-5-style traces.

Compute times come from the analytic FLOP model divided by a calibrated
attained fraction of the A100's Tensor-Core peak; element-wise and
optimizer kernels are HBM-bandwidth-bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..hardware.gpu import GpuSpec
from ..units import Bytes, Flops, Scalar, Seconds


class KernelKind(enum.Enum):
    """Kernel categories matching the paper's Fig. 5 legend."""

    GEMM = "gemm"
    ELEMENTWISE = "elementwise"
    TRANSFORM = "transform"
    MEMORY = "memory"
    OPTIMIZER = "optimizer"
    NCCL_ALL_REDUCE = "nccl_all_reduce"
    NCCL_REDUCE = "nccl_reduce"
    NCCL_ALL_GATHER = "nccl_all_gather"
    NCCL_BROADCAST = "nccl_broadcast"
    NCCL_SEND_RECV = "nccl_send_recv"
    HOST_TRANSFER = "host_transfer"
    NVME_IO = "nvme_io"
    CPU_OPTIMIZER = "cpu_optimizer"
    IDLE = "idle"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_communication(self) -> bool:
        return self.value.startswith("nccl_") or self in (
            KernelKind.HOST_TRANSFER, KernelKind.NVME_IO
        )


#: Kernel kinds a straggler GPU's degraded clocks stretch.  Communication,
#: host I/O, and idle time are paced by the fabric or by other ranks, not
#: by this GPU's SMs, so a straggler fault leaves them untouched.  A
#: tuple, so a membership test compares by identity instead of hashing
#: the kind in Python.
STRAGGLER_KINDS = (
    KernelKind.GEMM,
    KernelKind.ELEMENTWISE,
    KernelKind.TRANSFORM,
    KernelKind.MEMORY,
    KernelKind.OPTIMIZER,
)


def straggler_multiplier(kind: "KernelKind", factor: float) -> float:
    """Duration multiplier a straggler fault applies to one kernel.

    ``factor`` is the rank's current compute slowdown (>= 1, where 1 is
    healthy); only SM-bound kernel kinds are stretched.
    """
    if factor < 1.0:
        raise ConfigurationError(
            f"straggler slowdown factor must be >= 1, got {factor}"
        )
    return factor if kind in STRAGGLER_KINDS else 1.0


@dataclass(frozen=True)
class GpuComputeModel:
    """Turns FLOPs/bytes into kernel durations for one GPU.

    ``gemm_efficiency`` is the attained fraction of FP16 Tensor-Core peak
    for the training step's GEMM mix; it is a per-strategy calibration
    constant (model-parallel strategies run narrower GEMMs and attain
    less).  ``hbm_efficiency`` covers element-wise/optimizer kernels.
    """

    gpu: GpuSpec
    gemm_efficiency: Scalar
    hbm_efficiency: Scalar = 0.70

    def __post_init__(self) -> None:
        if not 0 < self.gemm_efficiency <= 1:
            raise ConfigurationError("gemm_efficiency must be in (0, 1]")
        if not 0 < self.hbm_efficiency <= 1:
            raise ConfigurationError("hbm_efficiency must be in (0, 1]")

    def gemm_time(self, flops: Flops) -> Seconds:
        """Seconds of Tensor-Core time for ``flops`` dense FLOPs."""
        if flops < 0:
            raise ConfigurationError("flops must be non-negative")
        return flops / (self.gpu.peak_fp16_flops * self.gemm_efficiency)

    def memory_bound_time(self, num_bytes: Bytes) -> Seconds:
        """Seconds for an HBM-bandwidth-bound kernel touching ``num_bytes``."""
        if num_bytes < 0:
            raise ConfigurationError("num_bytes must be non-negative")
        return num_bytes / (self.gpu.hbm_bandwidth * self.hbm_efficiency)

    def optimizer_time(self, num_params: float) -> Seconds:
        """GPU Adam step: streams ~32 B/param through HBM (fp32 states
        read+write, fp16 param write, fp16 grad read)."""
        return self.memory_bound_time(num_params * 32.0)
