"""Fig. 5 — single-iteration execution timelines at 1.4 B parameters.

Runs each of the paper's nine configurations on one node, renders rank 0's
compute/communication/host-IO lanes, and reports the iteration time next
to the published one (471 ms DDP ... 5.9 s NVMe opt+param).
"""

from __future__ import annotations

from typing import List

from ..core.runner import run_training
from ..core.search import model_for_billions
from ..hardware.presets import single_node_cluster
from ..parallel.placement import PLACEMENTS
from . import paper_data
from .common import (
    ALL_STRATEGIES,
    ExperimentResult,
    ExperimentSpec,
    placement_cluster,
)

#: Fig. 5's nine configurations, in paper order.
CONFIGS: List[str] = [
    "ddp", "megatron", "zero1", "zero2", "zero3",
    "zero1_opt_cpu", "zero2_opt_cpu",
    "zero3_opt_nvme", "zero3_opt_nvme_param_nvme",
]


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("fig5")
    model = model_for_billions(1.4)
    placement = PLACEMENTS["B"]  # 2x NVMe RAID0, the paper's Fig. 5 target
    rows = []
    renders = []
    for name in CONFIGS:
        strategy = ALL_STRATEGIES[name]()
        if "nvme" in name:
            cluster = placement_cluster(placement)
        else:
            cluster = single_node_cluster()
        metrics = run_training(cluster, strategy, model,
                               iterations=spec.iterations,
                               placement=placement,
                               fidelity=spec.fidelity)
        timeline = metrics.execution.timeline
        busy = timeline.compute_busy_fraction(0)
        rows.append({
            "config": name,
            "iteration_s": metrics.iteration_time,
            "paper_iteration_s": paper_data.ITERATION_TIME_1P4B_S[name],
            "compute_busy_fraction": busy,
            "communication_s": timeline.communication_time(0)
            / max(1, len(metrics.execution.iteration_times)),
        })
        window_start = metrics.measurement_window[0]
        window = (window_start, window_start + metrics.iteration_time)
        renders.append(
            f"--- {strategy.display_name}: iteration "
            f"{metrics.iteration_time * 1e3:.0f} ms "
            f"(paper {paper_data.ITERATION_TIME_1P4B_S[name] * 1e3:.0f} ms), "
            f"GPU busy {busy * 100:.0f}%\n"
            + timeline.render(0, width=96, window=window)
        )
    legend = ("glyphs: G=GEMM e=elementwise O=optimizer R=all-reduce "
              "r=reduce A=all-gather s=send/recv H=host-transfer N=NVMe "
              "C=CPU-Adam .=idle")
    rendered = "Fig. 5 — one training iteration, 1.4 B parameters\n" + \
        legend + "\n" + "\n".join(renders)
    return ExperimentResult("fig5", "single-iteration timelines",
                            rows, rendered)
