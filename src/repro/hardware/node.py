"""Dell PowerEdge XE8545 compute-node builder (paper Fig. 2-b).

One node contains:

* two EPYC 7763 sockets joined by three xGMI links,
* eight DDR4-3200 channels per socket (the DRAM endpoint),
* four A100 SXM4 GPUs — GPUs 0/1 on socket 0, GPUs 2/3 on socket 1,
  each on its own PCIe 4.0 x16 root,
* an all-to-all NVLink 3.0 mesh (four links per GPU pair),
* one ConnectX-6 NIC per socket on PCIe 4.0 x16,
* NVMe drives on PCIe 4.0 x4 (bifurcated x16), placed per configuration —
  the paper's baseline is one OS drive on socket 0 and two scratch drives
  on socket 1; the Fig. 14 placement study adds two more on socket 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ConfigurationError
from ..units import GB, US
from .cpu import CpuSpec, make_cpu, make_dram
from .devices import Device
from .gpu import GpuSpec, make_gpu
from .link import Link, LinkClass, LinkSpec
from .nic import NicSpec, make_nic
from .nvme import NvmeDrive, NvmeSpec
from .topology import Topology


@dataclass(frozen=True)
class NodeSpec:
    """Configuration for one XE8545-class node."""

    cpu: CpuSpec = CpuSpec()
    gpu: GpuSpec = GpuSpec()
    nic: NicSpec = NicSpec()
    nvme: NvmeSpec = NvmeSpec()
    gpus_per_node: int = 4
    nics_per_node: int = 2
    #: Socket index for each NVMe drive, in drive order.  Drive 0 is the OS
    #: drive; the rest are scratch.  The paper's baseline: OS on socket 0,
    #: two scratch drives on socket 1.
    nvme_sockets: Tuple[int, ...] = (0, 1, 1)
    nvlink_links_per_pair: int = 4
    nvlink_bandwidth_per_direction: float = 25 * GB
    pcie_bandwidth_per_direction: float = 32 * GB  # PCIe 4.0 x16
    pcie_nvme_bandwidth_per_direction: float = 8 * GB  # PCIe 4.0 x4
    xgmi_bandwidth_per_direction: float = 36 * GB
    xgmi_links: int = 3
    # Hop latencies.
    dram_latency: float = 0.09 * US
    pcie_latency: float = 0.6 * US
    nvlink_latency: float = 0.7 * US
    xgmi_latency: float = 0.5 * US
    # Single-stream attainable efficiency per hop (protocol overhead).
    pcie_efficiency: float = 0.88
    nvlink_efficiency: float = 0.90
    xgmi_efficiency: float = 0.85
    dram_efficiency: float = 0.80

    def __post_init__(self) -> None:
        if self.gpus_per_node < 1:
            raise ConfigurationError("a node needs at least one GPU")
        if self.nics_per_node < 1:
            raise ConfigurationError("a node needs at least one NIC")
        if any(s not in (0, 1) for s in self.nvme_sockets):
            raise ConfigurationError("NVMe sockets must be 0 or 1")

    def gpu_socket(self, gpu_index: int) -> int:
        """Socket a GPU hangs off: the first half on 0, the rest on 1."""
        return 0 if gpu_index < self.gpus_per_node // 2 else 1


class Node:
    """All devices, links, and drives of one compute node."""

    def __init__(self, index: int, spec: NodeSpec, topology: Topology) -> None:
        self.index = index
        self.spec = spec
        self.topology = topology
        self.cpus: List[Device] = []
        self.drams: List[Device] = []
        self.gpus: List[Device] = []
        self.nics: List[Device] = []
        self.nvme_drives: List[NvmeDrive] = []
        self._build()

    # -- naming ---------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"node{self.index}"

    def _dev(self, suffix: str) -> str:
        return f"{self.name}/{suffix}"

    # -- construction -----------------------------------------------------------
    def _build(self) -> None:
        spec = self.spec
        topo = self.topology
        # Sockets and their DRAM endpoints.
        for socket in range(2):
            cpu = make_cpu(self._dev(f"cpu{socket}"), node_index=self.index,
                           socket_index=socket, spec=spec.cpu)
            dram = make_dram(self._dev(f"dram{socket}"), node_index=self.index,
                             socket_index=socket, spec=spec.cpu)
            topo.add_device(cpu)
            topo.add_device(dram)
            self.cpus.append(cpu)
            self.drams.append(dram)
            topo.add_link(Link(
                self._dev(f"dram-link{socket}"),
                LinkSpec(
                    link_class=LinkClass.DRAM,
                    bandwidth_per_direction=spec.cpu.dram_channel_bandwidth,
                    latency=spec.dram_latency,
                    efficiency=spec.dram_efficiency,
                    duplex=False,
                ),
                cpu.name, dram.name, count=spec.cpu.dram_channels,
            ))
        # Inter-socket xGMI.
        topo.add_link(Link(
            self._dev("xgmi"),
            LinkSpec(
                link_class=LinkClass.XGMI,
                bandwidth_per_direction=spec.xgmi_bandwidth_per_direction,
                latency=spec.xgmi_latency,
                efficiency=spec.xgmi_efficiency,
            ),
            self.cpus[0].name, self.cpus[1].name, count=spec.xgmi_links,
        ))
        # GPUs and their PCIe roots.
        for g in range(spec.gpus_per_node):
            socket = spec.gpu_socket(g)
            gpu = make_gpu(self._dev(f"gpu{g}"), node_index=self.index,
                           socket_index=socket, spec=spec.gpu)
            topo.add_device(gpu)
            self.gpus.append(gpu)
            topo.add_link(Link(
                self._dev(f"pcie-gpu{g}"),
                LinkSpec(
                    link_class=LinkClass.PCIE_GPU,
                    bandwidth_per_direction=spec.pcie_bandwidth_per_direction,
                    latency=spec.pcie_latency,
                    efficiency=spec.pcie_efficiency,
                ),
                gpu.name, self.cpus[socket].name,
            ))
        # NVLink mesh (every GPU pair).
        for a in range(spec.gpus_per_node):
            for b in range(a + 1, spec.gpus_per_node):
                topo.add_link(Link(
                    self._dev(f"nvlink{a}-{b}"),
                    LinkSpec(
                        link_class=LinkClass.NVLINK,
                        bandwidth_per_direction=spec.nvlink_bandwidth_per_direction,
                        latency=spec.nvlink_latency,
                        efficiency=spec.nvlink_efficiency,
                    ),
                    self.gpus[a].name, self.gpus[b].name,
                    count=spec.nvlink_links_per_pair,
                ))
        # NICs, one per socket (round-robin if more).
        for n in range(spec.nics_per_node):
            socket = n % 2
            nic = make_nic(self._dev(f"nic{n}"), node_index=self.index,
                           socket_index=socket, spec=spec.nic)
            topo.add_device(nic)
            self.nics.append(nic)
            topo.add_link(Link(
                self._dev(f"pcie-nic{n}"),
                LinkSpec(
                    link_class=LinkClass.PCIE_NIC,
                    bandwidth_per_direction=spec.pcie_bandwidth_per_direction,
                    latency=spec.pcie_latency,
                    efficiency=spec.pcie_efficiency,
                ),
                nic.name, self.cpus[socket].name,
            ))
        # NVMe drives.
        for d, socket in enumerate(spec.nvme_sockets):
            drive = NvmeDrive(self._dev(f"nvme{d}"), spec.nvme,
                              node_index=self.index, socket_index=socket)
            topo.add_device(drive.device)
            self.nvme_drives.append(drive)
            topo.add_link(Link(
                self._dev(f"pcie-nvme{d}"),
                LinkSpec(
                    link_class=LinkClass.PCIE_NVME,
                    bandwidth_per_direction=spec.pcie_nvme_bandwidth_per_direction,
                    latency=spec.pcie_latency,
                    efficiency=spec.pcie_efficiency,
                ),
                drive.device.name, self.cpus[socket].name,
            ))

    # -- accessors ----------------------------------------------------------------
    @property
    def scratch_drives(self) -> List[NvmeDrive]:
        """Drives available for ZeRO-Infinity swap (everything but the OS drive)."""
        return self.nvme_drives[1:]

    def dram_name(self, socket: int) -> str:
        return self.drams[socket].name

    def nic_name(self, index: int) -> str:
        return self.nics[index].name

    def nic_for_socket(self, socket: int) -> Device:
        """The NIC local to ``socket`` (NCCL's preferred NIC)."""
        for nic in self.nics:
            if nic.socket_index == socket:
                return nic
        return self.nics[0]

    def total_gpu_memory(self) -> float:
        return sum(g.memory.capacity_bytes for g in self.gpus)

    def total_host_memory(self) -> float:
        return sum(d.memory.capacity_bytes for d in self.drams)
