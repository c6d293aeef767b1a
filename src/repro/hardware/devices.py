"""Base device abstractions shared by all hardware components.

A *device* is any endpoint that can source or sink traffic in the topology
graph: CPUs (their DRAM controllers), GPUs, NICs, NVMe drives, and the
inter-node switch.  Devices with byte-addressable capacity additionally
expose a :class:`MemoryPool` that the memory-usage telemetry (paper Figs. 11
and 13) draws from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigurationError, OutOfMemoryError
from ..units import GB


class DeviceKind(enum.Enum):
    CPU = "cpu"      # the socket hub (I/O die); routing vertex, no memory
    DRAM = "dram"    # the socket's memory endpoint (holds the host pool)
    GPU = "gpu"
    NIC = "nic"
    NVME = "nvme"
    SWITCH = "switch"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class MemoryPool:
    """A byte-accounted memory capacity with named allocations.

    Allocations are labelled so the telemetry layer can report memory
    *composition* (parameters vs. gradients vs. optimizer states vs.
    buffers), mirroring the stacked bars of Figs. 11-b and 13-c.
    """

    def __init__(self, capacity_bytes: float, *, owner: str = "") -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError("memory capacity must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.owner = owner
        self._allocations: Dict[str, float] = {}

    @property
    def used_bytes(self) -> float:
        return sum(self._allocations.values())

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self.used_bytes

    def allocate(self, label: str, num_bytes: float) -> None:
        """Allocate ``num_bytes`` under ``label`` (labels accumulate)."""
        if num_bytes < 0:
            raise ConfigurationError("allocation size must be non-negative")
        if num_bytes > self.free_bytes + 1e-6:
            raise OutOfMemoryError(
                f"{self.owner or 'memory pool'}: cannot allocate "
                f"{num_bytes / GB:.2f} GB for {label!r}; "
                f"{self.free_bytes / GB:.2f} GB free of "
                f"{self.capacity_bytes / GB:.2f} GB",
                device=self.owner,
                required_bytes=num_bytes,
                available_bytes=self.free_bytes,
            )
        self._allocations[label] = self._allocations.get(label, 0.0) + num_bytes

    def free(self, label: str, *, missing_ok: bool = False) -> float:
        """Release every byte held under ``label``; returns the amount.

        **Contract.**  Freeing a label with no live allocation raises
        :class:`~repro.errors.ConfigurationError`: it is either a
        double-free or a never-allocated label, and both mean the
        caller's byte accounting has drifted, so the runtime must not
        paper over it.  Callers that legitimately tear down labels that
        *may* be absent (idempotent cleanup paths) pass
        ``missing_ok=True`` and get the documented sentinel ``0.0`` back
        instead.  The opposite drift, a label never freed, is caught by
        the teardown audit of a leak-checked run
        (:func:`repro.sim.leaksan.audit_leaks`, ``RES007``).
        """
        if label not in self._allocations:
            if missing_ok:
                return 0.0
            raise ConfigurationError(
                f"{self.owner or 'memory pool'}: free of unknown label "
                f"{label!r}; live labels: {sorted(self._allocations)} "
                f"(double-free or never allocated; pass missing_ok=True "
                f"for idempotent teardown)"
            )
        return self._allocations.pop(label)

    def usage_by_label(self) -> Dict[str, float]:
        return dict(self._allocations)

    def reset(self) -> None:
        self._allocations.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemoryPool({self.owner!r}, used {self.used_bytes / GB:.1f} / "
            f"{self.capacity_bytes / GB:.1f} GB)"
        )


@dataclass
class Device:
    """A named vertex in the cluster topology.

    ``name`` is globally unique and hierarchical (``node0/gpu2``).
    ``numa_domain`` places the device for socket-affinity decisions
    (same-socket vs. cross-socket, Section III-C); it is the index of the
    socket the device hangs off, or ``None`` for the switch.
    """

    name: str
    kind: DeviceKind
    node_index: Optional[int] = None
    socket_index: Optional[int] = None
    memory: Optional[MemoryPool] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("device name must be non-empty")
        if self.memory is not None and not self.memory.owner:
            self.memory.owner = self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Device({self.name!r}, {self.kind})"
