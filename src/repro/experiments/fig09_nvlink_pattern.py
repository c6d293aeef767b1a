"""Fig. 9 — NVLink bandwidth utilization pattern, single-node training.

Simulates a window of steady-state training at 1.4 B parameters for each
strategy and renders the per-node aggregate NVLink utilization series,
with average/peak compared to the paper (DDP lowest at ~83 GB/s average;
Megatron-LM ~3x higher, peaking at 267 GB/s).
"""

from __future__ import annotations

from ..api.build import preset_cluster
from ..core.runner import run_training
from ..core.search import model_for_billions
from ..hardware.link import LinkClass
from ..telemetry.bandwidth import BandwidthMonitor
from ..telemetry.report import series_block
from . import paper_data
from .common import CORE_STRATEGIES, ExperimentResult, ExperimentSpec

QUICK_SPEC = ExperimentSpec.quick("fig9", iterations=4)
FULL_SPEC = ExperimentSpec.full("fig9", iterations=12)


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or QUICK_SPEC
    model = model_for_billions(1.4)
    iterations = spec.iterations
    rows = []
    blocks = ["Fig. 9 — NVLink utilization pattern (single node, 1.4 B)"]
    for name, factory in CORE_STRATEGIES.items():
        cluster = preset_cluster(1)
        metrics = run_training(cluster, factory(), model,
                               iterations=iterations,
                               fidelity=spec.fidelity)
        monitor = BandwidthMonitor(cluster)
        start, end = metrics.measurement_window
        series = monitor.series(LinkClass.NVLINK, start, end)
        stats = metrics.bandwidth[LinkClass.NVLINK]
        paper_avg, paper_peak = paper_data.NVLINK_SINGLE_NODE[name]
        rows.append({
            "strategy": name,
            "nvlink_avg_gbps": stats.average_gbps,
            "nvlink_peak_gbps": stats.peak_gbps,
            "paper_avg_gbps": paper_avg,
            "paper_peak_gbps": paper_peak,
        })
        blocks.append(series_block(name, series))
        blocks.append(
            f"{'':>10}  paper: avg {paper_avg:.1f} GB/s, peak {paper_peak:.1f} GB/s"
        )
    return ExperimentResult("fig9", "NVLink utilization pattern",
                            rows, "\n".join(blocks))
