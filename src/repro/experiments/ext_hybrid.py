"""Extension — hybrid TP x ZeRO parallelism on the dual-node cluster.

The paper stops at "DeepSpeed supports hybrid parallelism" (Section
II-C).  This experiment evaluates the configuration its findings imply:
tensor parallelism confined to NVLink inside each node, ZeRO data
parallelism across the RoCE fabric.  Compared against the paper's pure
configurations at each strategy's own maximum size, the hybrid should
(a) fit more than pure ZeRO-1/2 — the TP shard divides parameters by
four — and (b) avoid Megatron-LM's inter-node collapse.
"""

from __future__ import annotations

from ..core.runner import run_training
from ..core.search import max_model_size
from ..model.config import paper_model
from ..parallel import MegatronStrategy, zero1, zero2
from ..parallel.hybrid import hybrid_tp_zero1, hybrid_tp_zero2
from ..telemetry.report import format_table
from .common import ExperimentResult, ExperimentSpec, cluster_for


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("ext_hybrid")
    iterations = spec.iterations
    rows = []
    for factory in (MegatronStrategy, zero1, zero2,
                    hybrid_tp_zero1, hybrid_tp_zero2):
        cluster = cluster_for(2)
        strategy = factory()
        search = max_model_size(cluster, strategy)
        metrics = run_training(cluster, strategy,
                               paper_model(search.max_layers),
                               iterations=iterations,
                               fidelity=spec.fidelity)
        rows.append({
            "strategy": strategy.name,
            "max_model_b": search.billions,
            "tflops": metrics.tflops,
            "iteration_s": metrics.iteration_time,
        })
    rendered = format_table(
        ["strategy", "max model (B)", "TFLOP/s", "iter (s)"],
        [[r["strategy"], r["max_model_b"], r["tflops"], r["iteration_s"]]
         for r in rows],
        title="Extension — hybrid TP x ZeRO on two nodes",
    )
    return ExperimentResult("ext_hybrid", "hybrid parallelism extension",
                            rows, rendered)
