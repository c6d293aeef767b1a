"""Extension — micro-batch-size sensitivity.

Section V-B2 speculates that "the free space on GPU memory can also be
used for larger batch sizes, which may improve the throughput" but the
paper never sweeps it.  This experiment does: per-GPU micro-batch 4-64
for ZeRO-2 (compute-bound — throughput rises as kernels fatten and fixed
costs amortize) and for ZeRO-Infinity (NVMe-bound — the optimizer swap
traffic is batch-independent, so bigger batches amortize the swap and
throughput climbs until activations evict model states).
"""

from __future__ import annotations

from typing import List

from ..core.runner import run_training
from ..core.search import model_for_billions
from ..errors import OutOfMemoryError
from ..model.config import TrainingConfig
from ..parallel import zero2, zero3_nvme_optimizer
from ..parallel.placement import PLACEMENTS
from ..telemetry.report import format_table
from ..units import GB
from .common import (
    ExperimentResult,
    ExperimentSpec,
    cluster_for,
    placement_cluster,
)

BATCHES = (4, 8, 16, 32, 64)


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("ext_batch")
    iterations = spec.iterations
    placement = PLACEMENTS["B"]
    rows: List[dict] = []
    cases = [
        ("zero2@1.4B", zero2, 1.4, False),
        ("zero3_nvme@11.4B", zero3_nvme_optimizer, 11.4, True),
    ]
    for label, factory, size_b, uses_nvme in cases:
        model = model_for_billions(size_b)
        for batch in BATCHES:
            training = TrainingConfig(micro_batch_per_gpu=batch)
            if uses_nvme:
                cluster = placement_cluster(placement)
            else:
                cluster = cluster_for(1)
            try:
                metrics = run_training(cluster, factory(), model,
                                       training=training,
                                       iterations=iterations,
                                       placement=placement,
                                       fidelity=spec.fidelity)
                rows.append({
                    "case": label, "micro_batch": batch, "fits": True,
                    "tflops": metrics.tflops,
                    "tokens_per_s": (batch * 256 * 4
                                     / metrics.iteration_time),
                    "gpu_gb": metrics.memory.gpu_used / GB,
                })
            except OutOfMemoryError:
                rows.append({"case": label, "micro_batch": batch,
                             "fits": False, "tflops": None,
                             "tokens_per_s": None, "gpu_gb": None})
    rendered = format_table(
        ["case", "micro-batch", "TFLOP/s", "tokens/s", "GPU GB"],
        [[r["case"], r["micro_batch"],
          "OOM" if not r["fits"] else f"{r['tflops']:.0f}",
          "-" if not r["fits"] else f"{r['tokens_per_s']:.0f}",
          "-" if not r["fits"] else f"{r['gpu_gb']:.0f}"] for r in rows],
        title="Extension — micro-batch sensitivity (Section V-B2's 'larger "
              "batch sizes may improve throughput')",
    )
    return ExperimentResult("ext_batch", "micro-batch sensitivity",
                            rows, rendered)
