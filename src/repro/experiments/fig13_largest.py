"""Fig. 13 — largest single-node model with ZeRO-Offload / ZeRO-Infinity.

Searches the offload strategies' size ceilings on one node and measures
throughput and memory at the achieved size.  Paper: ZeRO-1 (CPU) 8.9 B at
155 TFLOP/s; ZeRO-2 (CPU) 14.2 B at 180; ZeRO-Infinity 33.3 B — six times
Megatron-LM's single-node ceiling — at 37 TFLOP/s, NVMe-bandwidth-bound.

For ZeRO-Infinity the simulator's memory model admits models beyond the
paper's 33.3 B stopping point (see EXPERIMENTS.md); the throughput row is
therefore measured *at* the paper's 33.3 B for comparability, with the
search ceiling reported alongside.
"""

from __future__ import annotations

from ..api.build import strategy_cluster
from ..core.runner import run_training
from ..core.search import max_model_size, model_for_billions
from ..model.config import paper_model
from ..parallel.placement import PLACEMENTS
from ..telemetry.report import format_table
from ..units import GB
from . import paper_data
from .common import ALL_STRATEGIES, ExperimentResult, ExperimentSpec


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("fig13")
    iterations = spec.iterations
    placement = PLACEMENTS["B"]
    rows = []
    for name, (paper_b, paper_tflops) in paper_data.LARGEST_SINGLE_NODE.items():
        uses_nvme = "nvme" in name
        cluster = strategy_cluster(name, 1, placement)
        strategy = ALL_STRATEGIES[name]()
        search = max_model_size(cluster, strategy, placement=placement)
        if uses_nvme:
            model = model_for_billions(paper_b)
            measured_b = paper_b
        else:
            model = paper_model(search.max_layers)
            measured_b = search.billions
        metrics = run_training(cluster, strategy, model,
                               iterations=iterations, placement=placement,
                               fidelity=spec.fidelity)
        rows.append({
            "strategy": name,
            "achieved_b": search.billions,
            "measured_at_b": measured_b,
            "paper_b": paper_b,
            "tflops": metrics.tflops,
            "paper_tflops": paper_tflops,
            "gpu_gb": metrics.memory.gpu_used / GB,
            "cpu_gb": metrics.memory.cpu_used / GB,
            "nvme_gb": metrics.memory.nvme_used / GB,
        })
    rendered = format_table(
        ["strategy", "search max (B)", "paper (B)", "TFLOP/s", "paper",
         "GPU GB", "CPU GB", "NVMe GB"],
        [[r["strategy"], r["achieved_b"], r["paper_b"], r["tflops"],
          r["paper_tflops"], r["gpu_gb"], r["cpu_gb"], r["nvme_gb"]]
         for r in rows],
        title="Fig. 13 — largest single-node model with offload",
    )
    return ExperimentResult("fig13", "largest single-node model",
                            rows, rendered)
