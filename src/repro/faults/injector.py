"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live simulation.

The :class:`FaultInjector` arms itself through the engine's run-start
hook: when :meth:`repro.sim.engine.Engine.run` first drains, the injector
schedules one apply and one revert callback per materialized fault
event.  Apply/revert bracket each degraded window:

* the flow network *settles* first, so every in-flight transfer's ledger
  interval is accounted at the rates (and degradation stamps) that
  actually applied;
* the capacity change lands (``Link.set_capacity_fraction``,
  ``NvmeDrive.set_slowdown``, or the per-rank straggler stack);
* the network *rebalances*, re-deriving every active flow's fair share
  from the new capacities.

Overlapping faults on the same target stack multiplicatively: two
independent 50 % capacity losses leave 25 % of the link; two stragglers
of +0.5 each slow the GPU by 2.25x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import FaultPlanError
from ..hardware.cluster import Cluster
from ..hardware.link import Link
from ..hardware.nvme import NvmeDrive
from ..sim.engine import Engine
from ..sim.flows import FlowNetwork
from .events import LINK_KINDS, FaultEvent, FaultKind
from .plan import FaultPlan


@dataclass
class ResolvedTarget:
    """What a fault event's target name maps to on a concrete cluster."""

    links: List[Link] = field(default_factory=list)
    rank: Optional[int] = None
    drive: Optional[NvmeDrive] = None


def _link_by_name(cluster: Cluster, name: str) -> Optional[Link]:
    for link in cluster.topology.links:
        if link.name == name:
            return link
    return None


def _drive_by_name(cluster: Cluster, name: str) -> Optional[NvmeDrive]:
    for node in cluster.nodes:
        for drive in node.nvme_drives:
            if drive.name == name:
                return drive
    return None


def _rank_of_target(cluster: Cluster, name: str) -> Optional[int]:
    if name.startswith("rank") and name[4:].isdigit():
        rank = int(name[4:])
        return rank if rank < cluster.num_gpus else None
    for rank in range(cluster.num_gpus):
        if cluster.gpu(rank).name == name:
            return rank
    return None


def resolve_target(cluster: Cluster, event: FaultEvent) -> ResolvedTarget:
    """Map an event's target name to cluster hardware, or raise.

    * link kinds accept a link name (``node0/xgmi``) or any device name
      — the blast radius of a device outage is every link attached to it
      (``node0/nic0`` takes its PCIe and RoCE attachments down;
      ``switch0`` darkens the whole inter-node fabric);
    * ``GPU_STRAGGLER`` accepts a GPU device name (``node0/gpu2``) or a
      global rank (``rank5``);
    * ``NVME_SLOWDOWN`` accepts an NVMe drive name (``node0/nvme1``).

    Raises :class:`~repro.errors.FaultPlanError` when the target does
    not exist or its type does not suit the fault kind — also the check
    the ``fault-plan`` analysis lint runs before the DES starts.
    """
    name = event.target
    if event.kind in LINK_KINDS:
        link = _link_by_name(cluster, name)
        if link is not None:
            return ResolvedTarget(links=[link])
        if cluster.topology.has_device(name):
            links = cluster.topology.links_of_device(name)
            if not links:
                raise FaultPlanError(
                    f"fault target {name!r} is a device with no links"
                )
            return ResolvedTarget(links=links)
        raise FaultPlanError(
            f"{event.kind} fault target {name!r} matches no link or "
            f"device in the cluster topology"
        )
    if event.kind is FaultKind.GPU_STRAGGLER:
        rank = _rank_of_target(cluster, name)
        if rank is None:
            raise FaultPlanError(
                f"straggler fault target {name!r} is not a GPU device or "
                f"'rankN' (cluster has ranks 0..{cluster.num_gpus - 1})"
            )
        return ResolvedTarget(rank=rank)
    if event.kind is FaultKind.NVME_SLOWDOWN:
        drive = _drive_by_name(cluster, name)
        if drive is None:
            raise FaultPlanError(
                f"NVMe fault target {name!r} matches no drive in the cluster"
            )
        return ResolvedTarget(drive=drive)
    raise FaultPlanError(f"unhandled fault kind {event.kind}")


class FaultInjector:
    """Schedules and applies one plan's faults onto a live engine run."""

    def __init__(self, plan: FaultPlan, cluster: Cluster, engine: Engine,
                 network: FlowNetwork) -> None:
        self.plan = plan
        self.cluster = cluster
        self.engine = engine
        self.network = network
        self.applied_events: List[FaultEvent] = plan.materialize()
        # Resolve every target eagerly: a bad plan fails before the run.
        self._resolved = [
            resolve_target(cluster, event) for event in self.applied_events
        ]
        #: active capacity-loss fractions per link name
        self._link_losses: Dict[str, List[float]] = {}
        #: active straggler slowdown factors per rank
        self._rank_factors: Dict[int, List[float]] = {}
        #: active NVMe slowdown factors per drive name
        self._drive_factors: Dict[str, List[float]] = {}
        if self.applied_events:
            engine.add_start_hook(self._arm)

    # -- scheduling -----------------------------------------------------------
    def _arm(self, engine: Engine) -> None:
        for event, resolved in zip(self.applied_events, self._resolved):
            engine.schedule_at(event.start, self._apply, event, resolved)
            engine.schedule_at(event.end, self._revert, event, resolved)

    # -- state transitions ----------------------------------------------------
    @staticmethod
    def _surviving_fraction(losses: List[float]) -> float:
        fraction = 1.0
        for loss in losses:
            fraction *= 1.0 - loss
        return max(0.0, fraction)

    def _loss_of(self, event: FaultEvent) -> float:
        return 1.0 if event.kind is FaultKind.LINK_DOWN else event.magnitude

    def _apply(self, event: FaultEvent, resolved: ResolvedTarget) -> None:
        self.engine.note_touch(f"injector:{event.target}")
        if resolved.links:
            self.network.settle()
            for link in resolved.links:
                losses = self._link_losses.setdefault(link.name, [])
                losses.append(self._loss_of(event))
                link.set_capacity_fraction(
                    self._surviving_fraction(losses), at_time=self.engine.now
                )
            self.network.rebalance()
        elif resolved.rank is not None:
            self._rank_factors.setdefault(resolved.rank, []).append(
                1.0 + event.magnitude
            )
        elif resolved.drive is not None:
            factors = self._drive_factors.setdefault(resolved.drive.name, [])
            factors.append(1.0 + event.magnitude)
            resolved.drive.set_slowdown(self._product(factors))

    def _revert(self, event: FaultEvent, resolved: ResolvedTarget) -> None:
        self.engine.note_touch(f"injector:{event.target}")
        if resolved.links:
            self.network.settle()
            for link in resolved.links:
                losses = self._link_losses[link.name]
                losses.remove(self._loss_of(event))
                link.set_capacity_fraction(
                    self._surviving_fraction(losses), at_time=self.engine.now
                )
            self.network.rebalance()
        elif resolved.rank is not None:
            self._rank_factors[resolved.rank].remove(1.0 + event.magnitude)
        elif resolved.drive is not None:
            factors = self._drive_factors[resolved.drive.name]
            factors.remove(1.0 + event.magnitude)
            resolved.drive.set_slowdown(self._product(factors))

    @staticmethod
    def _product(factors: List[float]) -> float:
        out = 1.0
        for factor in factors:
            out *= factor
        return out

    # -- queries used by the executor -----------------------------------------
    def compute_multiplier(self, rank: int) -> float:
        """Current straggler slowdown (>= 1) for one rank's kernels."""
        return self._product(self._rank_factors.get(rank, []))

    @property
    def has_faults(self) -> bool:
        return bool(self.applied_events)
