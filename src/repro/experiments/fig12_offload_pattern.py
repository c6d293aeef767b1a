"""Fig. 12 — bandwidth patterns under CPU and NVMe offload.

Renders NVLink / PCIe-GPU / PCIe-NVME / xGMI / DRAM utilization series
for the offload configurations at 11.4 B parameters.  The shapes to
reproduce: heavy DRAM peak-and-trough with CPU offload (optimizer
streaming), and the PCIe-NVME bursts with near-idle gaps for
ZeRO-Infinity.
"""

from __future__ import annotations

from ..core.runner import run_training
from ..core.search import model_for_billions
from ..hardware.link import LinkClass
from ..parallel.placement import PLACEMENTS
from ..telemetry.bandwidth import BandwidthMonitor
from ..telemetry.report import series_block
from . import paper_data
from .common import (
    ALL_STRATEGIES,
    ExperimentResult,
    ExperimentSpec,
    cluster_for,
    placement_cluster,
)

PATTERN_CLASSES = (LinkClass.NVLINK, LinkClass.PCIE_GPU,
                   LinkClass.PCIE_NVME, LinkClass.XGMI, LinkClass.DRAM)

CONFIGS = ("zero2_opt_cpu", "zero3_opt_cpu_param_cpu",
           "zero3_opt_nvme", "zero3_opt_nvme_param_nvme")


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("fig12")
    model = model_for_billions(paper_data.CONSOLIDATION_MODEL_B)
    iterations = spec.iterations
    placement = PLACEMENTS["B"]
    rows = []
    blocks = ["Fig. 12 — offload bandwidth patterns (11.4 B, single node)"]
    for name in CONFIGS:
        if "nvme" in name:
            cluster = placement_cluster(placement)
        else:
            cluster = cluster_for(1)
        metrics = run_training(cluster, ALL_STRATEGIES[name](), model,
                               iterations=iterations, placement=placement,
                               fidelity=spec.fidelity)
        monitor = BandwidthMonitor(cluster)
        start, end = metrics.measurement_window
        blocks.append(f"--- {name} (iter {metrics.iteration_time:.2f} s)")
        row = {"config": name, "iteration_s": metrics.iteration_time}
        for cls in PATTERN_CLASSES:
            series = monitor.series(cls, start, end)
            stats = metrics.bandwidth[cls]
            row[f"{cls.value}_avg_gbps"] = stats.average_gbps
            row[f"{cls.value}_peak_gbps"] = stats.peak_gbps
            blocks.append(series_block(cls.value, series))
        rows.append(row)
    return ExperimentResult("fig12", "offload bandwidth patterns",
                            rows, "\n".join(blocks))
