"""Cluster power/energy model (extension).

The paper's introduction motivates the whole study with training cost and
environmental impact ("the energy required and the environmental impact
become more concerning"), but never quantifies energy.  This module adds
a utilization-based power model on top of the telemetry the simulator
already produces, so every strategy can be compared on energy per
iteration and TFLOP per joule.

Power model: each device draws ``idle + (peak - idle) x utilization``.
GPU utilization is the compute lane's busy fraction from the run's spans;
CPU utilization blends a base with the CPU-optimizer duty cycle; DRAM,
NVMe, and NIC power follow their bandwidth duty cycles from the link
ledgers.  Figures are datasheet-typical for the paper's parts (A100 SXM4
400 W, EPYC 7763 280 W TDP, DDR4 RDIMMs ~6 W, D7-P5600 ~20 W active,
ConnectX-6 ~25 W, SN3700 switch amortized per port).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigurationError
from ..hardware.cluster import Cluster
from ..hardware.link import LinkClass
from ..runtime.kernels import KernelKind
from ..trace.model import Lane, Span
from ..trace.query import filter_spans
from .bandwidth import BandwidthMonitor


@dataclass(frozen=True)
class PowerModel:
    """Per-device idle/peak draw in watts."""

    gpu_idle: float = 80.0
    gpu_peak: float = 400.0
    cpu_idle: float = 95.0
    cpu_peak: float = 280.0
    dimm_idle: float = 2.0
    dimm_peak: float = 6.0
    nvme_idle: float = 5.0
    nvme_peak: float = 20.0
    nic_idle: float = 12.0
    nic_peak: float = 25.0
    switch_per_port: float = 15.0

    def blend(self, idle: float, peak: float, utilization: float) -> float:
        utilization = min(1.0, max(0.0, utilization))
        return idle + (peak - idle) * utilization


@dataclass(frozen=True)
class EnergyReport:
    """Energy accounting for one measurement window."""

    window_seconds: float
    average_power_watts: float
    by_component: Dict[str, float]  # average watts

    @property
    def energy_joules(self) -> float:
        return self.average_power_watts * self.window_seconds

    def energy_per_iteration(self, iteration_seconds: float) -> float:
        return self.average_power_watts * iteration_seconds

    def tflops_per_kilowatt(self, tflops: float) -> float:
        if self.average_power_watts <= 0:
            return 0.0
        return tflops / (self.average_power_watts / 1e3)


def estimate_energy(cluster: Cluster, spans: List[Span],
                    window: Tuple[float, float], *,
                    model: PowerModel = PowerModel()) -> EnergyReport:
    """Average cluster power over ``window`` from simulated telemetry."""
    start, end = window
    if end <= start:
        raise ConfigurationError("energy window must have positive width")
    duration = end - start
    monitor = BandwidthMonitor(cluster)
    components: Dict[str, float] = {}

    # GPUs: busy fraction of the compute lane.
    gpu_watts = 0.0
    for rank in range(cluster.num_gpus):
        busy = _busy_fraction(spans, rank, window)
        gpu_watts += model.blend(model.gpu_idle, model.gpu_peak, busy)
    components["gpu"] = gpu_watts

    # CPUs: base load plus the CPU-optimizer duty cycle.
    cpu_watts = 0.0
    adam_duty = _adam_duty_cycle(spans, window)
    for node in cluster.nodes:
        for _cpu in node.cpus:
            cpu_watts += model.blend(model.cpu_idle, model.cpu_peak,
                                     0.15 + 0.85 * adam_duty)
    components["cpu"] = cpu_watts

    # DRAM: duty cycle from the memory-channel ledgers.
    dram_watts = 0.0
    for node_index, node in enumerate(cluster.nodes):
        stats = monitor.stats(LinkClass.DRAM, start, end,
                              node_index=node_index)
        capacity = 2 * node.spec.cpu.dram_bandwidth
        duty = stats.average / capacity if capacity else 0.0
        dimms = 2 * node.spec.cpu.dram_channels
        dram_watts += dimms * model.blend(model.dimm_idle, model.dimm_peak,
                                          duty)
    components["dram"] = dram_watts

    # NVMe: duty cycle from the PCIe-NVME ledgers.
    nvme_watts = 0.0
    for node_index, node in enumerate(cluster.nodes):
        stats = monitor.stats(LinkClass.PCIE_NVME, start, end,
                              node_index=node_index)
        drives = len(node.nvme_drives)
        capacity = drives * node.spec.pcie_nvme_bandwidth_per_direction * 2
        duty = stats.average / capacity if capacity else 0.0
        nvme_watts += drives * model.blend(model.nvme_idle, model.nvme_peak,
                                           duty)
    components["nvme"] = nvme_watts

    # NICs + switch ports.
    nic_watts = 0.0
    for node_index, node in enumerate(cluster.nodes):
        stats = monitor.stats(LinkClass.ROCE, start, end,
                              node_index=node_index)
        capacity = len(node.nics) * 50e9
        duty = stats.average / capacity if capacity else 0.0
        nic_watts += len(node.nics) * model.blend(model.nic_idle,
                                                  model.nic_peak, duty)
    components["nic"] = nic_watts
    if cluster.switch is not None:
        ports = cluster.num_nodes * cluster.spec.node.nics_per_node
        components["switch"] = ports * model.switch_per_port

    total = sum(components.values())
    return EnergyReport(window_seconds=duration,
                        average_power_watts=total,
                        by_component=components)


def _busy_fraction(spans: List[Span], rank: int,
                   window: Tuple[float, float]) -> float:
    start, end = window
    busy = 0.0
    for record in filter_spans(spans, rank=rank, lane=Lane.COMPUTE):
        if record.kind is KernelKind.IDLE:
            continue
        overlap = min(record.end, end) - max(record.start, start)
        if overlap > 0:
            busy += overlap
    return busy / (end - start)


def _adam_duty_cycle(spans: List[Span],
                     window: Tuple[float, float]) -> float:
    start, end = window
    busy = 0.0
    records = filter_spans(spans, lane=Lane.HOST_IO,
                           kind=KernelKind.CPU_OPTIMIZER)
    ranks = {r.rank for r in records} or {0}
    for record in records:
        overlap = min(record.end, end) - max(record.start, start)
        if overlap > 0:
            busy += overlap
    return min(1.0, busy / (len(ranks) * (end - start)))
