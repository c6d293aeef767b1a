"""Ablation — offload double-buffer sizing (paper Section V-A2).

The paper notes a tuning tension: oversized pinned buffers steal GPU
memory from model states (shrinking the achievable model), undersized
ones cripple communication/computation overlap.  This sweep varies the
offloaded configuration's GPU buffer pool and reports the achievable
model size at each setting — the memory side of that trade-off.
"""

from __future__ import annotations

from typing import List

from .. import calibration
from ..api.build import preset_cluster
from ..core.search import max_model_size
from ..parallel import zero2_cpu_offload
from ..parallel.strategy import MemoryPlan, StrategyContext
from ..telemetry.report import format_table
from ..units import GB, MB
from .common import ExperimentResult, ExperimentSpec


class _BufferSizedOffload:
    """Delegating wrapper that overrides the GPU buffer pool size."""

    def __init__(self, buffer_bytes: float) -> None:
        self._inner = zero2_cpu_offload()
        self._buffer_bytes = buffer_bytes
        self.name = f"{self._inner.name}_buf{buffer_bytes / GB:.0f}g"
        self.calibration = self._inner.calibration
        self.traffic_profile = self._inner.traffic_profile

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def memory_plan(self, ctx: StrategyContext) -> MemoryPlan:
        plan = self._inner.memory_plan(ctx)
        plan.gpu["framework_buffers"] = self._buffer_bytes
        return plan


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    del spec  # the search is analytic and fast
    rows: List[dict] = []
    for buffer_gb in (1, 2, 4, 8, 12, 16):
        cluster = preset_cluster(1)
        strategy = _BufferSizedOffload(buffer_gb * GB)
        result = max_model_size(cluster, strategy)
        rows.append({
            "buffer_gb": buffer_gb,
            "max_model_b": result.billions,
            "is_default": abs(buffer_gb * GB
                              - calibration.OFFLOAD_GPU_BUFFER_BYTES) < MB,
        })
    rendered = format_table(
        ["GPU buffer (GB)", "max model (B)", "default"],
        [[r["buffer_gb"], r["max_model_b"],
          "yes" if r["is_default"] else ""] for r in rows],
        title="Ablation — offload buffer size vs achievable model "
              "(ZeRO-2 CPU offload, single node)",
    )
    return ExperimentResult("ablation_buffers", "offload buffer sizing",
                            rows, rendered)
