"""Extension — pipeline vs tensor parallelism across nodes.

The paper's dual-node Megatron-LM collapse comes from tensor-parallel
all-reduces crossing RoCE on every layer.  Pipeline parallelism moves
only one micro-batch of boundary activations per stage hand-off, so its
inter-node traffic is orders of magnitude smaller.  This experiment runs
the explicit 1F1B schedule (bubbles emerge from simulated dependencies,
not a calibrated fraction) against the paper's configurations, and
sweeps the micro-batch count to show the classic bubble amortization
curve.
"""

from __future__ import annotations

from ..core.runner import run_training
from ..core.search import model_for_billions
from ..hardware.link import LinkClass
from ..parallel import MegatronStrategy, zero3
from ..parallel.pipeline import pipeline_1f1b
from ..telemetry.report import format_table
from .common import ExperimentResult, ExperimentSpec, cluster_for

COMPARISON_MODEL_B = 5.5  # largest size every contender fits on 2 nodes


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("ext_pipeline")
    iterations = spec.iterations
    model = model_for_billions(COMPARISON_MODEL_B)
    rows = []

    # Head-to-head at a fixed model size on two nodes.
    for strategy in (MegatronStrategy(), zero3(), pipeline_1f1b()):
        cluster = cluster_for(2)
        metrics = run_training(cluster, strategy, model,
                               iterations=iterations,
                               fidelity=spec.fidelity)
        rows.append({
            "study": "head_to_head",
            "strategy": strategy.name,
            "micro_batches": getattr(strategy, "_micro_batches", None),
            "tflops": metrics.tflops,
            "roce_avg_gbps": metrics.bandwidth[LinkClass.ROCE].average_gbps,
            "busy_fraction":
                metrics.execution.timeline.compute_busy_fraction(0),
        })

    # Bubble amortization: more micro-batches, smaller bubble.
    for m in (8, 16, 32, 64) if spec.full_sweep else (8, 16, 32):
        cluster = cluster_for(2)
        metrics = run_training(cluster, pipeline_1f1b(micro_batches=m),
                               model, iterations=iterations,
                               fidelity=spec.fidelity)
        rows.append({
            "study": "microbatch_sweep",
            "strategy": "pipeline",
            "micro_batches": m,
            "tflops": metrics.tflops,
            "roce_avg_gbps": metrics.bandwidth[LinkClass.ROCE].average_gbps,
            "busy_fraction":
                metrics.execution.timeline.compute_busy_fraction(0),
        })

    rendered = format_table(
        ["study", "strategy", "micro-batches", "TFLOP/s", "RoCE avg GB/s",
         "GPU busy"],
        [[r["study"], r["strategy"], r["micro_batches"] or "-",
          r["tflops"], r["roce_avg_gbps"], r["busy_fraction"]]
         for r in rows],
        title=f"Extension — pipeline vs tensor parallelism "
              f"({COMPARISON_MODEL_B} B, 2 nodes)",
    )
    return ExperimentResult("ext_pipeline", "pipeline parallelism extension",
                            rows, rendered)
