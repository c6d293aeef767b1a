"""Fig. 11 — consolidating dual-node 11.4 B training onto one node.

The paper's pivotal experiment: Megatron-LM needs two nodes for 11.4 B
parameters; ZeRO-Offload fits it on one node at 1.58x the throughput
(ZeRO-2 + CPU optimizer), and ZeRO-Infinity trades throughput for NVMe
capacity.  Reports throughput (Fig. 11-a) and memory composition
(Fig. 11-b) for every configuration.
"""

from __future__ import annotations

from ..api.build import preset_cluster
from ..core.runner import run_training
from ..core.search import model_for_billions
from ..parallel import MegatronStrategy
from ..parallel.placement import PLACEMENTS
from ..telemetry.report import format_table
from ..units import GB
from . import paper_data
from .common import ALL_STRATEGIES, ExperimentResult, ExperimentSpec


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("fig11")
    model = model_for_billions(paper_data.CONSOLIDATION_MODEL_B)
    iterations = spec.iterations
    rows = []

    # Reference: Megatron-LM on two nodes at its own achieved maximum
    # (the paper's 11.4 B; the simulator's search lands within ~3 %).
    from ..core.search import max_model_size
    from ..model.config import paper_model

    dual = preset_cluster(2)
    megatron = MegatronStrategy()
    search = max_model_size(dual, megatron)
    metrics = run_training(dual, megatron, paper_model(search.max_layers),
                           iterations=iterations,
                           fidelity=spec.fidelity)
    rows.append(_row("megatron_dual", metrics))

    # CPU offload on one node.
    for name in ("zero2_opt_cpu", "zero3_opt_cpu_param_cpu"):
        cluster = preset_cluster(1)
        metrics = run_training(cluster, ALL_STRATEGIES[name](), model,
                               iterations=iterations,
                               fidelity=spec.fidelity)
        rows.append(_row(name, metrics))

    # NVMe offload, single and dual drives.
    for placement_key, suffix in (("A", "_1x"), ("B", "_2x")):
        placement = PLACEMENTS[placement_key]
        for base in ("zero3_opt_nvme", "zero3_opt_nvme_param_nvme"):
            cluster = preset_cluster(1, placement)
            metrics = run_training(cluster, ALL_STRATEGIES[base](), model,
                                   iterations=iterations,
                                   placement=placement,
                                   fidelity=spec.fidelity)
            rows.append(_row(base + suffix, metrics))

    rendered = format_table(
        ["config", "TFLOP/s", "paper", "GPU GB", "CPU GB", "NVMe GB"],
        [[r["config"], r["tflops"], r["paper_tflops"], r["gpu_gb"],
          r["cpu_gb"], r["nvme_gb"]] for r in rows],
        title="Fig. 11 — dual-node 11.4 B consolidated onto one node",
    )
    return ExperimentResult("fig11", "offload consolidation", rows, rendered)


def _row(config: str, metrics) -> dict:
    return {
        "config": config,
        "tflops": metrics.tflops,
        "paper_tflops": paper_data.CONSOLIDATION_THROUGHPUT.get(config),
        "gpu_gb": metrics.memory.gpu_used / GB,
        "cpu_gb": metrics.memory.cpu_used / GB,
        "nvme_gb": metrics.memory.nvme_used / GB,
        "iteration_s": metrics.iteration_time,
    }
