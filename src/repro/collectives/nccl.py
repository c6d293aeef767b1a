"""Topology-aware NCCL communicator over the fluid-flow network.

A :class:`NcclCommunicator` binds a group of GPU ranks to the cluster
topology and executes collectives as simulated flows.

Scheduling mirrors NCCL's behaviour on the paper's hardware:

* **Node-aware ring ordering** — ranks are ordered so GPUs within a node
  are adjacent, limiting inter-node hops to one crossing per node boundary
  per ring direction.
* **Multiple rings (channels)** — NCCL stripes a collective over several
  rings to use all 12 NVLinks per GPU and both directions of every link.
  We build forward+backward rings plus a shuffled ring intra-node
  (~3x a single ring's bandwidth, matching measured NCCL bus bandwidth on
  4x A100), and forward+backward rings per within-node rotation across
  nodes so both ConnectX-6 NICs carry traffic.
* **Inter-node launch overhead** — collectives that cross RoCE pay a
  per-operation setup cost (QP scheduling, proxy-thread handoff), which is
  what makes fine-grained per-layer collectives (ZeRO-3, Megatron-LM TP)
  so expensive across nodes in the paper's dual-node results.

Collectives return simulation events; callers (the executor's per-rank
processes) yield them.  ``estimate_*`` variants cost an operation without
running the DES, for analytic planning and tests.

Before launching, :meth:`NcclCommunicator.run` checks that no link of
its rings is down.  Every capacity change bumps the topology log's
``capacity_epoch``, so the rings are re-scanned only after that counter
has moved since the last scan that found them all up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, TransportTimeoutError
from ..hardware.cluster import Cluster
from ..hardware.link import Link
from ..hardware.serdes import TrafficProfile
from ..hardware.topology import Route
from ..sim.engine import BaseEvent, Engine
from ..sim.fastpath.memo import COST_CACHE, collective_cost_key
from ..sim.flows import FlowNetwork, Transfer
from .algorithms import (
    Algorithm,
    choose_algorithm,
    tree_edge_traffic_factor,
    tree_edges,
    tree_step_count,
)
from .primitives import CollectiveKind, CollectiveOp


#: Per-operation launch overhead for collectives whose ring crosses RoCE.
#: Calibrated so per-layer collectives across nodes reproduce the paper's
#: dual-node throughput collapse (Section IV-C2).
DEFAULT_INTERNODE_LAUNCH_OVERHEAD = 2.5e-3
#: Launch overhead for NVLink-only collectives (kernel launch + protocol).
DEFAULT_INTRANODE_LAUNCH_OVERHEAD = 25e-6


@dataclass(frozen=True)
class RetryPolicy:
    """Transport-level retry semantics for transient path outages.

    When a collective is launched while a link on one of its ring routes
    is fully down (a flapping NIC, an injected outage — see
    :mod:`repro.faults`), the communicator behaves like NCCL's IB/RoCE
    transport: it waits ``timeout`` seconds, re-probes, and backs off
    geometrically by ``backoff`` per failed probe, up to ``max_retries``
    probes.  Exhausting the budget raises
    :class:`~repro.errors.TransportTimeoutError` — the simulated analog
    of a communicator abort killing the training job.
    """

    timeout: float = 250e-6
    backoff: float = 2.0
    max_retries: int = 20

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ConfigurationError("retry timeout must be positive")
        if self.backoff < 1.0:
            raise ConfigurationError("retry backoff must be >= 1")
        if self.max_retries < 1:
            raise ConfigurationError("max_retries must be >= 1")

    def delays(self) -> List[float]:
        """The wait before each probe, in order."""
        return [
            self.timeout * self.backoff ** attempt
            for attempt in range(self.max_retries)
        ]


@dataclass(frozen=True)
class Ring:
    """One NCCL channel: a cyclic rank order and its hop routes."""

    order: Tuple[int, ...]
    routes: Tuple[Route, ...]


@dataclass(frozen=True)
class _LaunchPlan:
    """Memoized flow schedule for one collective shape on one communicator.

    Everything here is *capacity-independent*: routes, per-transfer
    bytes, pool-consumption weights, and the launch+step-latency
    overhead are all static properties of the ring/tree structure.
    Time-varying link capacity (fault degradation) enters at execution
    time through :meth:`repro.sim.flows.Flow.refresh_capacity`, which
    re-derives a flow's rate ceiling whenever the allocator re-rates it
    — so a plan computed on a healthy fabric stays valid under
    degradation.
    """

    #: ``(route, bytes, weight_multiplier, None)`` per flow to launch:
    #: the :data:`~repro.sim.flows.Transfer` entries of one
    #: :meth:`~repro.sim.flows.FlowNetwork.launch`, uncapped.
    transfers: Tuple[Transfer, ...]
    label: str
    #: launch overhead + sequential-step latency, per real NCCL launch.
    base_overhead: float


class NcclCommunicator:
    """One NCCL communicator (process group) over a set of GPU ranks."""

    def __init__(self, cluster: Cluster, engine: Engine, network: FlowNetwork,
                 ranks: Sequence[int], *,
                 profile: TrafficProfile = TrafficProfile.BURSTY,
                 internode_launch_overhead: float = DEFAULT_INTERNODE_LAUNCH_OVERHEAD,
                 intranode_launch_overhead: float = DEFAULT_INTRANODE_LAUNCH_OVERHEAD,
                 internode_rate_efficiency: float = 0.55,
                 retry_policy: Optional[RetryPolicy] = None,
                 label_prefix: str = "") -> None:
        if not ranks:
            raise ConfigurationError("communicator needs at least one rank")
        if len(set(ranks)) != len(ranks):
            raise ConfigurationError("duplicate ranks in communicator")
        self.cluster = cluster
        self.engine = engine
        self.network = network
        self.profile = profile
        # Applied at transfer-launch time (not baked into the memoized
        # launch plans) so plans stay shareable across identically keyed
        # collectives while the shared-ledger flows stay attributable to
        # the job that launched them.
        self.label_prefix = label_prefix
        self.internode_launch_overhead = internode_launch_overhead
        self.intranode_launch_overhead = intranode_launch_overhead
        if not 0 < internode_rate_efficiency <= 1:
            raise ConfigurationError(
                "internode_rate_efficiency must be in (0, 1]"
            )
        self.internode_rate_efficiency = internode_rate_efficiency
        self.retry_policy = retry_policy or RetryPolicy()
        self.ranks = self._node_aware_order(cluster, list(ranks))
        self.size = len(self.ranks)
        self.rings = self._build_rings()
        # The unique links of the ring structure, in traversal order, for
        # the outage probe (:meth:`_down_links`).
        self._ring_links: Tuple[Link, ...] = tuple(dict.fromkeys(
            link
            for ring in self.rings
            for route in ring.routes
            for link in route.links
        ))
        self._capacity_log = cluster.topology.log
        #: the ``capacity_epoch`` of the last probe that found every ring
        #: link up (-1: none yet)
        self._clean_epoch = -1
        #: memoized launch plans keyed on (schedule, kind, payload) —
        #: identical collective calls across iterations reuse the plan
        #: instead of re-deriving routes, payload splits, and weights.
        self._plan_cache: Dict[Tuple[str, str, float], _LaunchPlan] = {}

    # -- construction -------------------------------------------------------------
    @staticmethod
    def _node_aware_order(cluster: Cluster, ranks: List[int]) -> Tuple[int, ...]:
        """Order ranks so same-node GPUs are ring-adjacent (NCCL behaviour)."""
        return tuple(sorted(ranks, key=lambda r: (r // cluster.gpus_per_node, r)))

    def _routes_for_order(self, order: Sequence[int],
                          cross_socket_nic: bool = False) -> Tuple[Route, ...]:
        """Hop routes for a ring order.

        ``cross_socket_nic`` forces node-boundary hops through the NIC on
        the *other* socket, modelling NCCL's imperfect NIC affinity with
        multiple channels — the source of the xGMI traffic the paper
        observes in dual-node training ("a portion of inter-node traffic
        from the GPUs goes through the NIC connected to the neighboring
        CPU", Section IV-E2).
        """
        topology = self.cluster.topology
        per_node = self.cluster.gpus_per_node
        routes = []
        n = len(order)
        for i in range(n):
            src_rank = order[i]
            dst_rank = order[(i + 1) % n]
            src = self.cluster.gpu(src_rank)
            dst = self.cluster.gpu(dst_rank)
            crosses_nodes = src_rank // per_node != dst_rank // per_node
            if crosses_nodes and cross_socket_nic:
                src_node = self.cluster.node_of_rank(src_rank)
                dst_node = self.cluster.node_of_rank(dst_rank)
                waypoints = [
                    src_node.nic_for_socket(1 - (src.socket_index or 0)).name,
                    dst_node.nic_for_socket(1 - (dst.socket_index or 0)).name,
                ]
                routes.append(topology.route_via(src.name, dst.name,
                                                 waypoints))
            else:
                routes.append(topology.route(src.name, dst.name))
        return tuple(routes)

    def _build_rings(self) -> List[Ring]:
        n = len(self.ranks)
        if n < 2:
            return []
        base = self.ranks
        rings: List[Ring] = [
            Ring(base, self._routes_for_order(base)),
            Ring(tuple(reversed(base)),
                 self._routes_for_order(tuple(reversed(base)))),
        ]
        if self.spans_nodes:
            # Rotate within each node block so the node-boundary crossings
            # land on GPUs of the other socket; these channels exit via
            # the cross-socket NIC (imperfect NIC affinity).
            rotated = self._rotate_within_nodes(base, 2)
            rings.append(Ring(rotated, self._routes_for_order(
                rotated, cross_socket_nic=True)))
            reversed_rotated = tuple(reversed(rotated))
            rings.append(Ring(reversed_rotated, self._routes_for_order(
                reversed_rotated, cross_socket_nic=True)))
        elif n >= 4:
            # A third intra-node ring over a shuffled order engages the
            # NVLink pairs the identity ring leaves idle.
            shuffled = base[0::2] + base[1::2]
            rings.append(Ring(shuffled, self._routes_for_order(shuffled)))
        return rings

    def _rotate_within_nodes(self, order: Tuple[int, ...], shift: int) -> Tuple[int, ...]:
        per_node = self.cluster.gpus_per_node
        blocks: List[List[int]] = []
        for start in range(0, len(order), per_node):
            block = list(order[start:start + per_node])
            k = shift % len(block)
            blocks.append(block[k:] + block[:k])
        return tuple(rank for block in blocks for rank in block)

    @property
    def spans_nodes(self) -> bool:
        nodes = {r // self.cluster.gpus_per_node for r in self.ranks}
        return len(nodes) > 1

    @property
    def launch_overhead(self) -> float:
        return (
            self.internode_launch_overhead
            if self.spans_nodes
            else self.intranode_launch_overhead
        )

    # -- execution (DES) ------------------------------------------------------------
    def run(self, op: CollectiveOp, *, launch_count: int = 1,
            algorithm: Algorithm = Algorithm.AUTO) -> BaseEvent:
        """Execute ``op`` on the flow network; returns the completion event.

        ``launch_count`` is the number of real NCCL launches this payload
        stands for (layer-fused schedule steps pass the fused count so
        per-operation launch overheads stay faithful).  ``algorithm``
        selects ring vs. binomial-tree scheduling; AUTO mirrors NCCL's
        payload-based heuristic.
        """
        if op.group_size != self.size:
            raise ConfigurationError(
                f"op group size {op.group_size} != communicator size {self.size}"
            )
        if launch_count < 1:
            raise ConfigurationError("launch_count must be >= 1")
        if self.size == 1 or op.payload_bytes <= 0:
            return self.engine.timeout(0.0)
        epoch = self._capacity_log.capacity_epoch
        if epoch != self._clean_epoch:
            if self._down_links():
                # A link on the collective's path is dark: enter the
                # transport's probe/backoff loop before launching any
                # flows.
                return self.engine.process(
                    self._retry_until_path_up(op, launch_count, algorithm),
                    name=f"nccl-retry/{op.kind}",
                )
            self._clean_epoch = epoch
        return self._dispatch(op, launch_count, algorithm)

    def _dispatch(self, op: CollectiveOp, launch_count: int,
                  algorithm: Algorithm) -> BaseEvent:
        chosen = choose_algorithm(
            algorithm, op.kind, op.payload_bytes / launch_count
        )
        schedule = "tree" if chosen is Algorithm.TREE else "ring"
        return self._launch(self._launch_plan(schedule, op), launch_count)

    def _down_links(self) -> List[str]:
        """Names of fully-down links on any of this communicator's rings."""
        return [link.name for link in self._ring_links if link.is_down]

    def _retry_until_path_up(self, op: CollectiveOp, launch_count: int,
                             algorithm: Algorithm):
        """Probe/backoff process wrapping a collective behind an outage."""
        for delay in self.retry_policy.delays():
            yield self.engine.timeout(delay)
            if not self._down_links():
                result = yield self._dispatch(op, launch_count, algorithm)
                return result
        down = ", ".join(self._down_links())
        raise TransportTimeoutError(
            f"collective {op.kind} aborted after "
            f"{self.retry_policy.max_retries} retries; links still down: "
            f"{down or '(recovered too late)'}"
        )

    #: Distinct collective shapes per communicator stay tiny (a schedule
    #: reuses a handful of payload sizes); the cap is a leak guard, not a
    #: working-set tuning knob.
    _PLAN_CACHE_MAX = 512

    def _launch_plan(self, schedule: str, op: CollectiveOp) -> _LaunchPlan:
        """The memoized flow schedule for one (schedule, kind, payload).
        The key holds the kind's value, not the member, which would be
        hashed in Python on every run."""
        key = (schedule, op.kind._value_, float(op.payload_bytes))
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = (self._ring_plan(op) if schedule == "ring"
                    else self._tree_plan(op))
            if len(self._plan_cache) < self._PLAN_CACHE_MAX:
                self._plan_cache[key] = plan
        return plan

    def _ring_plan(self, op: CollectiveOp) -> _LaunchPlan:
        per_ring_payload = op.payload_bytes / len(self.rings)
        per_link = per_ring_payload * (op.per_link_bytes / op.payload_bytes)
        transfers: List[Transfer] = []
        max_latency = 0.0
        for ring in self.rings:
            for route in ring.routes:
                max_latency = max(max_latency, route.latency())
                transfers.append(
                    (route, per_link, self._route_weight(route), None)
                )
        # Sequential ring steps each pay a hop latency beyond the one the
        # flow itself charges; launch overhead per real operation.
        step_latency = max(0, op.steps - 1) * max_latency
        return _LaunchPlan(tuple(transfers), str(op.kind),
                           self.launch_overhead + step_latency)

    def _tree_plan(self, op: CollectiveOp) -> _LaunchPlan:
        """Binomial-tree schedule over the node-aware order."""
        per_edge = op.payload_bytes * tree_edge_traffic_factor(op.kind)
        topology = self.cluster.topology
        transfers: List[Transfer] = []
        max_latency = 0.0
        for child, parent in tree_edges(self.ranks):
            route = topology.route(self.cluster.gpu(child).name,
                                   self.cluster.gpu(parent).name)
            max_latency = max(max_latency, route.latency())
            transfers.append(
                (route, per_edge, self._route_weight(route), None)
            )
        steps = tree_step_count(op.kind, self.size)
        step_latency = max(0, steps - 1) * max_latency
        return _LaunchPlan(tuple(transfers), f"{op.kind}(tree)",
                           self.launch_overhead + step_latency)

    def _launch(self, plan: _LaunchPlan, launch_count: int) -> BaseEvent:
        """Start ``plan``'s flows as one launch.  Its hold is the plan's
        launch overhead and step latency once per real NCCL launch, so
        the collective takes at least that long however fast its flows
        finish."""
        return self.network.launch(
            plan.transfers, profile=self.profile,
            label=self.label_prefix + plan.label,
            hold=plan.base_overhead * launch_count,
        )

    def all_reduce(self, payload_bytes: float) -> BaseEvent:
        return self.run(CollectiveOp(CollectiveKind.ALL_REDUCE, payload_bytes, self.size))

    def all_gather(self, payload_bytes: float) -> BaseEvent:
        return self.run(CollectiveOp(CollectiveKind.ALL_GATHER, payload_bytes, self.size))

    def reduce_scatter(self, payload_bytes: float) -> BaseEvent:
        return self.run(CollectiveOp(CollectiveKind.REDUCE_SCATTER, payload_bytes, self.size))

    def broadcast(self, payload_bytes: float) -> BaseEvent:
        return self.run(CollectiveOp(CollectiveKind.BROADCAST, payload_bytes, self.size))

    def reduce(self, payload_bytes: float) -> BaseEvent:
        return self.run(CollectiveOp(CollectiveKind.REDUCE, payload_bytes, self.size))

    def _route_weight(self, route: Route) -> float:
        """Pool-consumption multiplier: NCCL's inter-node protocol
        efficiency.  Scaling *weight* (not a per-flow cap) means the
        aggregate attainable RoCE rate is ``efficiency x`` the raw link
        rate no matter how many outstanding collectives there are — the
        proxy thread, not the wire, is the bottleneck."""
        from ..hardware.link import LinkClass

        if any(link.link_class is LinkClass.ROCE for link in route.links):
            return 1.0 / self.internode_rate_efficiency
        return 1.0

    def send_recv(self, src_rank: int, dst_rank: int,
                  payload_bytes: float) -> BaseEvent:
        """Point-to-point transfer (pipeline-parallel stage boundaries)."""
        src = self.cluster.gpu(src_rank).name
        dst = self.cluster.gpu(dst_rank).name
        route = self.cluster.topology.route(src, dst)
        return self.network.transfer(route, payload_bytes, profile=self.profile,
                                     label=self.label_prefix + "send_recv")

    # -- analytic estimation (no DES) --------------------------------------------
    def estimate(self, op: CollectiveOp, *,
                 algorithm: Algorithm = Algorithm.AUTO) -> float:
        """Closed-form seconds for ``op``, assuming an otherwise idle fabric.

        Mirrors :meth:`run`'s ring/tree selection so planners comparing
        estimates against executions see consistent costs.  Evaluations
        are memoized in the process-wide
        :data:`~repro.sim.fastpath.memo.COST_CACHE`, keyed on everything
        the closed form reads — collective shape, participant order,
        communicator calibration, the static fabric fingerprint, and the
        current degradation stamp — so repeated planner queries over the
        same fabric are dictionary lookups.
        """
        if self.size == 1 or op.payload_bytes <= 0:
            return 0.0
        topology = self.cluster.topology
        key = collective_cost_key(
            kind=str(op.kind),
            payload_bytes=float(op.payload_bytes),
            participants=self.ranks,
            algorithm=str(algorithm),
            profile=str(self.profile),
            internode_launch_overhead=self.internode_launch_overhead,
            intranode_launch_overhead=self.intranode_launch_overhead,
            internode_rate_efficiency=self.internode_rate_efficiency,
            topology_fingerprint=topology.fingerprint(),
            degradation_stamp=topology.degradation_stamp(),
        )
        return COST_CACHE.lookup(
            key, lambda: self._estimate_uncached(op, algorithm)
        )

    def _estimate_uncached(self, op: CollectiveOp,
                           algorithm: Algorithm) -> float:
        """The actual closed form behind :meth:`estimate`.

        Rings run concurrently; links shared by several rings split
        their capacity, so the ring estimate scales each ring's time by
        how many rings reuse its slowest link.
        """
        if choose_algorithm(algorithm, op.kind,
                            op.payload_bytes) is Algorithm.TREE:
            return self._estimate_tree(op)
        per_link = op.per_link_bytes / len(self.rings)
        link_use: dict = {}
        for ring in self.rings:
            for route in ring.routes:
                for link in route.links:
                    link_use[link] = link_use.get(link, 0) + 1
        worst = 0.0
        for ring in self.rings:
            for route in ring.routes:
                sharing = max(link_use[link] for link in route.links)
                # Forward/backward rings use opposite directions: duplex
                # links only contend with same-direction reuse (~half).
                effective_sharing = max(1.0, sharing / 2.0)
                rate = route.bandwidth(self.profile) / self._route_weight(route)
                time = per_link * effective_sharing / rate
                worst = max(worst, time + route.latency())
        return worst + self.launch_overhead

    def _estimate_tree(self, op: CollectiveOp) -> float:
        """Closed-form cost of the binomial-tree schedule."""
        per_edge = op.payload_bytes * tree_edge_traffic_factor(op.kind)
        topology = self.cluster.topology
        worst = 0.0
        for child, parent in tree_edges(self.ranks):
            route = topology.route(self.cluster.gpu(child).name,
                                   self.cluster.gpu(parent).name)
            rate = route.bandwidth(self.profile) / self._route_weight(route)
            worst = max(worst, per_edge / rate + route.latency())
        steps = tree_step_count(op.kind, self.size)
        # Latency per sequential level beyond the first edge's own.
        level_latency = max(
            (topology.route(self.cluster.gpu(c).name,
                            self.cluster.gpu(p).name).latency()
             for c, p in tree_edges(self.ranks)), default=0.0,
        )
        return worst + max(0, steps - 1) * level_latency + self.launch_overhead

    def estimate_all_reduce(self, payload_bytes: float) -> float:
        return self.estimate(
            CollectiveOp(CollectiveKind.ALL_REDUCE, payload_bytes, self.size)
        )

    def estimate_all_gather(self, payload_bytes: float) -> float:
        return self.estimate(
            CollectiveOp(CollectiveKind.ALL_GATHER, payload_bytes, self.size)
        )
