"""Ablations — NVMe DRAM-cache size and media bandwidth sensitivity.

Two design-choice studies around the ZeRO-Infinity bottleneck the paper
highlights (Sections V-B3 and V-E):

* cache sweep — how the drive's DRAM write-cache size shapes burst
  absorption (the microbenchmark analog of Fig. 12's abrupt peaks);
* media sweep — throughput of the 11.4 B ZeRO-Infinity run as a function
  of NAND bandwidth, demonstrating the paper's "aggregate NVMe bandwidth
  is what matters" conclusion without adding drives.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..core.runner import run_training
from ..core.search import model_for_billions
from ..hardware.cluster import Cluster, ClusterSpec
from ..hardware.nvme import NvmeDrive, NvmeSpec
from ..parallel.infinity import zero3_nvme_optimizer
from ..parallel.placement import PLACEMENTS
from ..telemetry.report import format_table
from ..units import GB
from .common import ExperimentResult, ExperimentSpec


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("ablation_nvme")
    rows: List[dict] = []

    # (a) DRAM-cache sweep: absorb a 16 GB burst with varying cache.
    for cache_gb in (0, 2, 4, 8, 16):
        nvme_spec = replace(NvmeSpec(), dram_cache_bytes=cache_gb * GB)
        drive = NvmeDrive("sweep/nvme", nvme_spec)
        burst = 16 * GB
        seconds = drive.write_time(burst)
        rows.append({
            "study": "cache",
            "cache_gb": cache_gb,
            "burst_gb": 16,
            "effective_gbps": burst / seconds / GB,
        })

    # (b) media-bandwidth sweep on the 11.4 B ZeRO-Infinity run.
    model = model_for_billions(11.4)
    iterations = spec.iterations
    for scale in (0.5, 1.0, 2.0, 4.0):
        base = NvmeSpec()
        nvme_spec = replace(
            base,
            nand_read_bandwidth=base.nand_read_bandwidth * scale,
            nand_write_bandwidth=base.nand_write_bandwidth * scale,
        )
        placement = PLACEMENTS["B"]
        node = replace(placement.node_spec(), nvme=nvme_spec)
        cluster = Cluster(ClusterSpec(num_nodes=1, node=node))
        metrics = run_training(cluster, zero3_nvme_optimizer(), model,
                               iterations=iterations, placement=placement,
                               fidelity=spec.fidelity)
        rows.append({
            "study": "media",
            "media_scale": scale,
            "tflops": metrics.tflops,
            "iteration_s": metrics.iteration_time,
        })

    cache_rows = [[r["cache_gb"], r["effective_gbps"]]
                  for r in rows if r["study"] == "cache"]
    media_rows = [[r["media_scale"], r["tflops"], r["iteration_s"]]
                  for r in rows if r["study"] == "media"]
    rendered = (
        format_table(["cache (GB)", "16 GB burst rate (GB/s)"], cache_rows,
                     title="Ablation — NVMe DRAM-cache size") + "\n\n" +
        format_table(["media scale", "TFLOP/s", "iter (s)"], media_rows,
                     title="Ablation — NVMe media bandwidth (11.4 B, "
                           "ZeRO-Infinity optimizer offload)")
    )
    return ExperimentResult("ablation_nvme", "NVMe cache/media ablation",
                            rows, rendered)
