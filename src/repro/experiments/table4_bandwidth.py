"""Table IV — average / 90th-percentile / peak bandwidth per interconnect.

Reproduces the paper's central measurement table: for every training
configuration (five core strategies on one and two nodes, the CPU-offload
consolidations, and the 1x/2x NVMe ZeRO-Infinity runs), the aggregate
bidirectional per-node bandwidth statistics for DRAM, xGMI, PCIe-GPU,
PCIe-NVME, PCIe-NIC, NVLink, and RoCE.
"""

from __future__ import annotations

from typing import List

from ..api.build import preset_cluster
from ..core.runner import run_training
from ..core.search import max_model_size, model_for_billions
from ..model.config import paper_model
from ..parallel.placement import PLACEMENTS
from ..telemetry.report import BANDWIDTH_HEADERS, bandwidth_row, format_table
from . import paper_data
from .common import (
    ALL_STRATEGIES,
    CORE_STRATEGIES,
    ExperimentResult,
    ExperimentSpec,
)


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("table4")
    iterations = spec.iterations
    rows: List[dict] = []
    consolidation_model = model_for_billions(paper_data.CONSOLIDATION_MODEL_B)

    # Sections IV-E1 / IV-E2: core strategies at their max size.
    for num_nodes in (1, 2):
        for name, factory in CORE_STRATEGIES.items():
            cluster = preset_cluster(num_nodes)
            strategy = factory()
            search = max_model_size(cluster, strategy)
            metrics = run_training(cluster, strategy,
                                   paper_model(search.max_layers),
                                   iterations=iterations,
                                   fidelity=spec.fidelity)
            rows.append(_row(f"{name}@{num_nodes}n", name, num_nodes,
                             metrics))

    # Section V-A: CPU-offload consolidation at 11.4 B.
    for name in ("zero2_opt_cpu", "zero3_opt_cpu_param_cpu"):
        cluster = preset_cluster(1)
        metrics = run_training(cluster, ALL_STRATEGIES[name](),
                               consolidation_model, iterations=iterations,
                               fidelity=spec.fidelity)
        rows.append(_row(f"{name}@1n", name, 1, metrics))

    # Section V-B: ZeRO-Infinity with 1x and 2x NVMe at 11.4 B.
    for placement_key, suffix in (("A", "1x"), ("B", "2x")):
        placement = PLACEMENTS[placement_key]
        for name in ("zero3_opt_nvme", "zero3_opt_nvme_param_nvme"):
            cluster = preset_cluster(1, placement)
            metrics = run_training(cluster, ALL_STRATEGIES[name](),
                                   consolidation_model,
                                   iterations=iterations,
                                   placement=placement,
                                   fidelity=spec.fidelity)
            rows.append(_row(f"{name}@{suffix}", name, 1, metrics))

    rendered = format_table(
        ["configuration"] + BANDWIDTH_HEADERS,
        [[r["configuration"]] + r["bandwidth_row"] for r in rows],
        title="Table IV — bandwidth utilization (aggregate bidirectional "
              "per node, GB/s)",
    )
    return ExperimentResult("table4", "bandwidth utilization table",
                            rows, rendered)


def _row(label: str, strategy: str, num_nodes: int, metrics) -> dict:
    flat = bandwidth_row(metrics.bandwidth)
    row = {
        "configuration": label,
        "strategy": strategy,
        "nodes": num_nodes,
        "bandwidth_row": flat,
        "tflops": metrics.tflops,
    }
    for cls, stats in metrics.bandwidth.items():
        row[f"{cls.value}_avg_gbps"] = stats.average_gbps
        row[f"{cls.value}_p90_gbps"] = stats.p90_gbps
        row[f"{cls.value}_peak_gbps"] = stats.peak_gbps
    return row
