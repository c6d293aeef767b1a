"""Iteration-schedule intermediate representation.

A training strategy compiles one optimizer step into a per-rank list of
:class:`Step` objects — GPU compute segments, collectives, host/NVMe
transfers, CPU optimizer work, and pipeline-bubble idles.  The executor
(:mod:`repro.runtime.executor`) interprets the steps on the discrete-event
engine, which yields iteration times, Fig.-5-style timelines, and
per-link bandwidth ledgers in one pass.

The IR keeps strategies declarative and hardware-agnostic: endpoints are
symbolic (:class:`Location`), collectives name a communicator group, and
all rendezvous between ranks happens via step keys.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Sequence, Tuple, Union

from ..collectives.primitives import CollectiveKind
from ..errors import ConfigurationError
from ..runtime.kernels import KernelKind


class Location(enum.Enum):
    """Symbolic endpoints resolved per rank by the executor."""

    GPU = "gpu"          # the rank's GPU HBM
    DRAM = "dram"        # host DRAM on the rank's socket
    NVME = "nvme"        # the rank's assigned swap volume


@dataclass(frozen=True)
class ComputeStep:
    """A GPU kernel segment of known duration."""

    kind: KernelKind
    duration: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ConfigurationError("compute duration must be non-negative")


#: the trace kernel kind of each collective
_KERNEL_KINDS: Dict[CollectiveKind, KernelKind] = {
    CollectiveKind.ALL_REDUCE: KernelKind.NCCL_ALL_REDUCE,
    CollectiveKind.ALL_GATHER: KernelKind.NCCL_ALL_GATHER,
    CollectiveKind.REDUCE_SCATTER: KernelKind.NCCL_REDUCE,
    CollectiveKind.REDUCE: KernelKind.NCCL_REDUCE,
    CollectiveKind.BROADCAST: KernelKind.NCCL_BROADCAST,
    CollectiveKind.SEND_RECV: KernelKind.NCCL_SEND_RECV,
}


@dataclass(frozen=True)
class CollectiveStep:
    """A collective over a named communicator.

    ``blocking`` steps stall the rank until the collective completes
    (Megatron's inline TP all-reduces, ZeRO-3's pre-GEMM all-gathers);
    non-blocking steps launch and continue (DDP/ZeRO gradient reduction
    overlapped with backward compute), to be collected by a later
    :class:`WaitPendingStep`.
    ``key`` must be unique per iteration and identical across the ranks of
    one group — it is the rendezvous identity.
    """

    key: str
    comm: str
    kind: CollectiveKind
    payload_bytes: float
    blocking: bool = True
    #: how many real NCCL launches this (possibly layer-fused) step stands
    #: for — preserves per-operation launch overhead when schedules chunk
    #: adjacent layers to bound simulation event counts.
    op_count: int = 1

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ConfigurationError("payload must be non-negative")
        if self.op_count < 1:
            raise ConfigurationError("op_count must be >= 1")

    @cached_property
    def kernel_kind(self) -> KernelKind:
        """The trace kernel kind, looked up once per step: the lookup
        hashes the kind in Python."""
        return _KERNEL_KINDS[self.kind]


@dataclass(frozen=True)
class WaitPendingStep:
    """Wait for every non-blocking operation this rank has launched."""

    name: str = "wait_pending"


@dataclass(frozen=True)
class WaitForStep:
    """Wait for one specific non-blocking operation by its key.

    Models prefetching: ZeRO-3 launches the next layer's parameter
    all-gather non-blocking, computes the current layer, then waits on the
    prefetched gather before entering the next layer's GEMMs.
    """

    key: str
    name: str = "wait_for"


@dataclass(frozen=True)
class HostTransferStep:
    """A point transfer between the rank's GPU, DRAM, or NVMe volume.

    NVMe endpoints fan out into per-stripe-member flows capped at each
    drive's sustained media bandwidth; GPU<->DRAM transfers ride the PCIe
    root and DRAM channels of the rank's socket.
    """

    name: str
    src: Location
    dst: Location
    payload_bytes: float
    blocking: bool = True

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ConfigurationError("payload must be non-negative")
        if self.src is self.dst:
            raise ConfigurationError("transfer endpoints must differ")


@dataclass(frozen=True)
class CpuWorkStep:
    """Host-side optimizer work (DeepSpeed CPU Adam) over a partition.

    Duration is computed by the executor from the socket's DRAM bandwidth
    shared among the ranks working on that socket, per the model in
    :func:`repro.hardware.cpu.cpu_adam_step_time`.
    """

    name: str
    num_params: float

    def __post_init__(self) -> None:
        if self.num_params < 0:
            raise ConfigurationError("num_params must be non-negative")


@dataclass(frozen=True)
class IdleStep:
    """Deliberate GPU idle time (pipeline bubbles, serialization stalls)."""

    duration: float
    name: str = "bubble"

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ConfigurationError("idle duration must be non-negative")


Step = Union[ComputeStep, CollectiveStep, WaitPendingStep, WaitForStep,
             HostTransferStep, CpuWorkStep, IdleStep]


@dataclass
class CommunicatorSpec:
    """A named set of rank groups (e.g. one TP group per node)."""

    name: str
    groups: List[List[int]]

    def group_of(self, rank: int) -> Tuple[int, List[int]]:
        for index, group in enumerate(self.groups):
            if rank in group:
                return index, group
        raise ConfigurationError(
            f"rank {rank} is in no group of communicator {self.name!r}"
        )


@dataclass
class IterationSchedule:
    """One optimizer step, compiled per rank."""

    steps_by_rank: Dict[int, List[Step]]
    communicators: Dict[str, CommunicatorSpec] = field(default_factory=dict)

    @property
    def ranks(self) -> List[int]:
        return sorted(self.steps_by_rank)

    def validate(self) -> None:
        """Sanity-check rendezvous consistency across ranks."""
        seen: Dict[Tuple[str, int, str], int] = {}
        for rank, steps in self.steps_by_rank.items():
            for step in steps:
                if isinstance(step, CollectiveStep):
                    if step.comm not in self.communicators:
                        raise ConfigurationError(
                            f"step {step.key!r} names unknown communicator "
                            f"{step.comm!r}"
                        )
                    spec = self.communicators[step.comm]
                    group_index, _ = spec.group_of(rank)
                    ident = (step.comm, group_index, step.key)
                    seen[ident] = seen.get(ident, 0) + 1
        for (comm, group_index, key), count in seen.items():
            group = self.communicators[comm].groups[group_index]
            if count != len(group):
                raise ConfigurationError(
                    f"collective {key!r} on {comm}[{group_index}] reached by "
                    f"{count} ranks, group has {len(group)}"
                )


def uniform_schedule(ranks: Sequence[int], steps: List[Step],
                     communicators: Dict[str, CommunicatorSpec]) -> IterationSchedule:
    """An SPMD schedule: every rank executes the same step list."""
    return IterationSchedule(
        steps_by_rank={rank: list(steps) for rank in ranks},
        communicators=communicators,
    )


def layer_chunks(num_layers: int, max_chunks: int = 48) -> List[Tuple[int, int]]:
    """Split ``num_layers`` into at most ``max_chunks`` (start, count) runs.

    Deep models (the paper scales to 660 layers) would otherwise emit
    thousands of per-layer steps per iteration; chunking fuses adjacent
    layers while schedules preserve total compute time, communication
    payload, and per-operation launch counts.
    """
    if num_layers < 1:
        raise ConfigurationError("num_layers must be >= 1")
    if max_chunks < 1:
        raise ConfigurationError("max_chunks must be >= 1")
    chunk_count = min(num_layers, max_chunks)
    base = num_layers // chunk_count
    remainder = num_layers % chunk_count
    chunks: List[Tuple[int, int]] = []
    start = 0
    for index in range(chunk_count):
        count = base + (1 if index < remainder else 0)
        chunks.append((start, count))
        start += count
    return chunks
