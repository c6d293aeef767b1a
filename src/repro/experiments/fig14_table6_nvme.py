"""Fig. 14 / Table VI — NVMe data-placement study at 33.3 B parameters.

Runs ZeRO-Infinity (optimizer+parameter NVMe offload) under the seven
drive wiring/grouping/mapping configurations A-G and reports throughput
plus xGMI and PCIe-NVME utilization.  The paper's conclusions to
reproduce: more drives help; RAID0 stripes spanning sockets waste xGMI
bandwidth (C vs D, E vs F/G); socket-local volumes win.
"""

from __future__ import annotations

from ..core.runner import run_training
from ..core.search import model_for_billions
from ..hardware.link import LinkClass
from ..parallel.infinity import zero3_nvme_optimizer_params
from ..parallel.placement import PLACEMENTS
from ..telemetry.report import format_table
from . import paper_data
from .common import ExperimentResult, ExperimentSpec, placement_cluster

QUICK_SPEC = ExperimentSpec.quick("fig14_table6", iterations=2)
FULL_SPEC = ExperimentSpec.full("fig14_table6", iterations=4)


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or QUICK_SPEC
    model = model_for_billions(paper_data.PLACEMENT_MODEL_B)
    iterations = spec.iterations
    rows = []
    for key in "ABCDEFG":
        placement = PLACEMENTS[key]
        cluster = placement_cluster(placement)
        metrics = run_training(cluster, zero3_nvme_optimizer_params(), model,
                               iterations=iterations, warmup_iterations=1,
                               placement=placement,
                               fidelity=spec.fidelity)
        paper = paper_data.TABLE_VI[key]
        rows.append({
            "config": key,
            "description": placement.description,
            "tflops": metrics.tflops,
            "paper_tflops": paper["tflops"],
            "xgmi_avg_gbps": metrics.bandwidth[LinkClass.XGMI].average_gbps,
            "paper_xgmi_avg_gbps": paper["xgmi_avg"],
            "pcie_nvme_avg_gbps":
                metrics.bandwidth[LinkClass.PCIE_NVME].average_gbps,
            "paper_pcie_nvme_avg_gbps": paper["pcie_nvme_avg"],
        })
    rendered = format_table(
        ["cfg", "TFLOP/s", "paper", "xGMI avg", "paper", "PCIe-NVME avg",
         "paper"],
        [[r["config"], r["tflops"], r["paper_tflops"], r["xgmi_avg_gbps"],
          r["paper_xgmi_avg_gbps"], r["pcie_nvme_avg_gbps"],
          r["paper_pcie_nvme_avg_gbps"]] for r in rows],
        title="Fig. 14 / Table VI — NVMe placement configurations (33.3 B)",
    )
    return ExperimentResult("fig14_table6", "NVMe placement study",
                            rows, rendered)
