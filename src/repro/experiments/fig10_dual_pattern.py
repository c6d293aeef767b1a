"""Fig. 10 — NVLink / PCIe-GPU / PCIe-NIC / RoCE patterns, dual-node.

Simulates steady-state dual-node training per strategy at its own
maximum model size (as the paper does) and renders the four interconnect
series.  The signature shapes: Megatron-LM's solid constant utilization
across the whole window (the SerDes-hostile pattern) vs. ZeRO's
peak-and-trough bursts.
"""

from __future__ import annotations

from ..core.runner import run_training
from ..core.search import max_model_size
from ..hardware.link import LinkClass
from ..model.config import paper_model
from ..telemetry.bandwidth import BandwidthMonitor
from ..telemetry.report import series_block
from . import paper_data
from .common import CORE_STRATEGIES, ExperimentResult, ExperimentSpec, cluster_for

PATTERN_CLASSES = (LinkClass.NVLINK, LinkClass.PCIE_GPU,
                   LinkClass.PCIE_NIC, LinkClass.ROCE)

QUICK_SPEC = ExperimentSpec.quick("fig10", iterations=3)
FULL_SPEC = ExperimentSpec.full("fig10", iterations=8)


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or QUICK_SPEC
    rows = []
    blocks = ["Fig. 10 — dual-node interconnect patterns (max model size)"]
    iterations = spec.iterations
    for name, factory in CORE_STRATEGIES.items():
        cluster = cluster_for(2)
        strategy = factory()
        search = max_model_size(cluster, strategy)
        metrics = run_training(cluster, strategy,
                               paper_model(search.max_layers),
                               iterations=iterations,
                               fidelity=spec.fidelity)
        monitor = BandwidthMonitor(cluster)
        start, end = metrics.measurement_window
        blocks.append(f"--- {strategy.display_name} "
                      f"({search.billions:.1f} B, "
                      f"iter {metrics.iteration_time:.2f} s)")
        row = {"strategy": name, "model_b": search.billions}
        for cls in PATTERN_CLASSES:
            series = monitor.series(cls, start, end)
            stats = metrics.bandwidth[cls]
            row[f"{cls.value}_avg_gbps"] = stats.average_gbps
            row[f"{cls.value}_peak_gbps"] = stats.peak_gbps
            paper_avg = paper_data.DUAL_NODE_BANDWIDTH_AVG[name].get(cls.value)
            row[f"{cls.value}_paper_avg_gbps"] = paper_avg
            blocks.append(series_block(cls.value, series))
        rows.append(row)
    return ExperimentResult("fig10", "dual-node interconnect patterns",
                            rows, "\n".join(blocks))
