"""Fig. 7 — compute throughput at the largest achievable model size.

Each strategy trains its own maximum-size model (from the Fig. 6 search)
and reports DeepSpeed-Flops-Profiler-style TFLOP/s.  The paper's
headline shape: DDP fastest but tiny; Megatron-LM competitive on one
node but collapsing to ~25 % of ZeRO's throughput on two.
"""

from __future__ import annotations

from ..core.runner import run_training
from ..core.search import max_model_size
from ..model.config import paper_model
from ..telemetry.report import format_table
from . import paper_data
from .common import CORE_STRATEGIES, ExperimentResult, ExperimentSpec, cluster_for


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("fig7")
    rows = []
    for num_nodes, paper in ((1, paper_data.THROUGHPUT_SINGLE_NODE),
                             (2, paper_data.THROUGHPUT_DUAL_NODE)):
        cluster = cluster_for(num_nodes)
        for name, factory in CORE_STRATEGIES.items():
            strategy = factory()
            search = max_model_size(cluster, strategy)
            model = paper_model(search.max_layers)
            metrics = run_training(cluster, strategy, model,
                                   iterations=spec.iterations,
                                   fidelity=spec.fidelity)
            rows.append({
                "nodes": num_nodes,
                "strategy": name,
                "model_b": search.billions,
                "tflops": metrics.tflops,
                "paper_tflops": paper[name],
                "iteration_s": metrics.iteration_time,
            })
    rendered = format_table(
        ["nodes", "strategy", "model (B)", "TFLOP/s", "paper", "iter (s)"],
        [[r["nodes"], r["strategy"], r["model_b"], r["tflops"],
          r["paper_tflops"], r["iteration_s"]] for r in rows],
        title="Fig. 7 — compute throughput at max model size",
    )
    return ExperimentResult("fig7", "compute throughput", rows, rendered)
