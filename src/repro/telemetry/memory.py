"""Memory-usage telemetry (free / nvidia-smi / df analogs).

Summarizes the cluster's memory pools into the composition figures the
paper reports: total GPU / CPU / NVMe usage and per-label breakdowns
(Figs. 11-b and 13-c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..hardware.cluster import Cluster
from ..hardware.devices import DeviceKind


@dataclass(frozen=True)
class MemoryReport:
    """Cluster-wide memory usage snapshot, bytes."""

    gpu_used: float
    cpu_used: float
    nvme_used: float
    gpu_by_label: Dict[str, float]
    cpu_by_label: Dict[str, float]
    nvme_by_label: Dict[str, float]

    @property
    def total_used(self) -> float:
        return self.gpu_used + self.cpu_used + self.nvme_used

    def composition(self) -> Dict[str, float]:
        """Fractions by tier, as plotted in Fig. 11-b."""
        total = self.total_used
        if total <= 0:
            return {"gpu": 0.0, "cpu": 0.0, "nvme": 0.0}
        return {
            "gpu": self.gpu_used / total,
            "cpu": self.cpu_used / total,
            "nvme": self.nvme_used / total,
        }


def snapshot(cluster: Cluster) -> MemoryReport:
    """Read every memory pool in the cluster (the paper's measurement
    moment: steady state during training)."""
    # GPU, host DRAM and NVMe tiers, picked by identity: an enum-keyed
    # dict would hash ``DeviceKind`` in Python for every device.
    used = [0.0, 0.0, 0.0]
    by_label: List[Dict[str, float]] = [{}, {}, {}]
    for device in cluster.topology.devices:
        pool, kind = device.memory, device.kind
        if pool is None:
            continue
        if kind is DeviceKind.GPU:
            tier = 0
        elif kind is DeviceKind.DRAM:
            tier = 1
        elif kind is DeviceKind.NVME:
            tier = 2
        else:
            continue
        used[tier] += pool.used_bytes
        labels = by_label[tier]
        for label, amount in pool.usage_by_label().items():
            labels[label] = labels.get(label, 0.0) + amount
    return MemoryReport(
        gpu_used=used[0],
        cpu_used=used[1],
        nvme_used=used[2],
        gpu_by_label=by_label[0],
        cpu_by_label=by_label[1],
        nvme_by_label=by_label[2],
    )
