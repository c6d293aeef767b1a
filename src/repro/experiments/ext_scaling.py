"""Extension — scaling beyond two nodes.

The paper's conclusion gestures at "hundreds or thousands of GPUs"; its
cluster stops at two nodes.  The simulator does not: this experiment
sweeps 1-8 XE8545 nodes (4-32 GPUs) at a fixed per-GPU model shard and
reports how each strategy's throughput scales — extrapolating the
paper's central finding that inter-node bandwidth, not compute, sets the
ceiling for communication-heavy strategies.
"""

from __future__ import annotations

from ..core.runner import run_training
from ..core.search import model_for_billions
from ..hardware.cluster import Cluster, ClusterSpec
from ..parallel import DdpStrategy, MegatronStrategy, zero2, zero3
from ..telemetry.report import format_table
from .common import ExperimentResult, ExperimentSpec

#: DDP's single-node ceiling: every strategy can train this everywhere.
SWEEP_MODEL_B = 1.4


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("ext_scaling")
    iterations = spec.iterations
    node_counts = (1, 2, 4, 8) if spec.full_sweep else (1, 2, 4)
    model = model_for_billions(SWEEP_MODEL_B)
    rows = []
    for num_nodes in node_counts:
        for factory in (DdpStrategy, MegatronStrategy, zero2, zero3):
            cluster = Cluster(ClusterSpec(num_nodes=num_nodes))
            strategy = factory()
            metrics = run_training(cluster, strategy, model,
                                   iterations=iterations,
                                   fidelity=spec.fidelity)
            rows.append({
                "nodes": num_nodes,
                "gpus": cluster.num_gpus,
                "strategy": strategy.name,
                "tflops": metrics.tflops,
                "per_gpu_tflops": metrics.tflops / cluster.num_gpus,
            })
    # Scaling efficiency relative to one node.
    base = {r["strategy"]: r["tflops"] for r in rows if r["nodes"] == 1}
    for row in rows:
        ideal = base[row["strategy"]] * row["nodes"]
        row["scaling_efficiency"] = row["tflops"] / ideal
    rendered = format_table(
        ["nodes", "GPUs", "strategy", "TFLOP/s", "per-GPU", "scaling eff."],
        [[r["nodes"], r["gpus"], r["strategy"], r["tflops"],
          r["per_gpu_tflops"], r["scaling_efficiency"]] for r in rows],
        title=f"Extension — multi-node scaling at {SWEEP_MODEL_B} B",
    )
    return ExperimentResult("ext_scaling", "multi-node scaling extension",
                            rows, rendered)
