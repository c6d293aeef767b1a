"""Ablation — activation recomputation on/off.

The paper's training scripts checkpoint activations (standard for this
model scale); this ablation quantifies both sides of that choice on the
simulator: without recomputation the per-iteration FLOPs drop by ~25 %
(no second forward) but the activation footprint explodes, collapsing
the achievable model size — the reason DDP is stuck at 1.4 B while the
model-parallel strategies reach 5-7 B.
"""

from __future__ import annotations

from typing import List

from ..core.runner import run_training
from ..core.search import max_model_size, model_for_billions
from ..errors import OutOfMemoryError
from ..model.config import TrainingConfig
from ..parallel import DdpStrategy, zero2, zero3
from ..telemetry.report import format_table
from .common import ExperimentResult, ExperimentSpec, cluster_for


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("ablation_recompute")
    iterations = spec.iterations
    rows: List[dict] = []
    for recompute in (True, False):
        training = TrainingConfig(activation_recompute=recompute)
        for factory in (DdpStrategy, zero2, zero3):
            cluster = cluster_for(1)
            strategy = factory()
            search = max_model_size(cluster, strategy, training=training)
            try:
                metrics = run_training(cluster, strategy,
                                       model_for_billions(0.7),
                                       training=training,
                                       iterations=iterations,
                                       fidelity=spec.fidelity)
                tflops = metrics.tflops
                iteration_s = metrics.iteration_time
            except OutOfMemoryError:
                tflops, iteration_s = None, None
            rows.append({
                "recompute": recompute,
                "strategy": strategy.name,
                "max_model_b": search.billions,
                "tflops_at_0p7b": tflops,
                "iteration_s_at_0p7b": iteration_s,
            })
    rendered = format_table(
        ["recompute", "strategy", "max model (B)", "TFLOP/s @0.7B",
         "iter (s)"],
        [[r["recompute"], r["strategy"], r["max_model_b"],
          r["tflops_at_0p7b"] or "OOM", r["iteration_s_at_0p7b"] or "-"]
         for r in rows],
        title="Ablation — activation recomputation on/off (single node)",
    )
    return ExperimentResult("ablation_recompute",
                            "activation recomputation ablation",
                            rows, rendered)
