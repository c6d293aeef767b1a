"""Job-scoped views over the shared machine.

A scheduled job sees a :class:`ClusterView`: the subset of GPUs the
scheduler allocated it, re-numbered as a dense rank space 0..k-1.  The
view quacks like :class:`~repro.hardware.cluster.Cluster` for every
consumer a job body touches — strategies (``StrategyContext``), the
executor, the NCCL communicator, and the memory-plan walkers — while
all devices, pools, links, and the topology remain the *shared* live
objects, so concurrent jobs contend on the same ledgers.

Allocations are restricted to two shapes that preserve the uniform
``rank // gpus_per_node`` arithmetic the communicator's ring
construction assumes:

* **intra-node**: k GPUs on one node (k <= the node's GPU count) — the
  view reports ``gpus_per_node == k`` and one node;
* **whole-node**: m complete nodes — the view reports the machine's
  real ``gpus_per_node`` and m nodes.

Anything else (e.g. 3 GPUs here plus 5 there) would break ring
adjacency assumptions and is rejected at validation time.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..errors import ConfigurationError, TopologyError
from ..hardware.cluster import Cluster
from ..hardware.devices import MemoryPool
from ..hardware.node import Node
from ..parallel.strategy import MemoryPlan

#: One allocated node: (node index in the shared cluster, GPU indices
#: on that node, in ascending order).
NodeAllocation = Tuple[int, Tuple[int, ...]]


class NodeView:
    """One node as a job sees it: a GPU subset, everything else shared."""

    def __init__(self, node: Node, gpu_indices: Sequence[int]) -> None:
        self._node = node
        self.gpu_indices = tuple(gpu_indices)
        self.gpus = [node.gpus[i] for i in self.gpu_indices]

    def __getattr__(self, name: str):
        return getattr(self._node, name)


class ClusterView:
    """A job's dense rank space over an allocation of the shared machine.

    ``global_gpu_indices`` maps the view's local rank to the machine's
    global rank — what the cluster trace builder uses to place a job's
    timeline spans on the shared timeline.
    """

    def __init__(self, cluster: Cluster,
                 allocation: Sequence[NodeAllocation]) -> None:
        if not allocation:
            raise ConfigurationError("cluster view needs an allocation")
        counts = {len(gpus) for _, gpus in allocation}
        if len(counts) != 1:
            raise ConfigurationError(
                f"allocation is ragged ({sorted(counts)} GPUs per node); "
                f"rank arithmetic needs a uniform count"
            )
        per_node = len(allocation[0][1])
        if per_node < 1:
            raise ConfigurationError("allocation has an empty node")
        if len(allocation) > 1 and per_node != cluster.gpus_per_node:
            raise ConfigurationError(
                "multi-node allocations must take whole nodes "
                f"({per_node} of {cluster.gpus_per_node} GPUs allocated)"
            )
        self.cluster = cluster
        self.allocation = tuple(
            (node_index, tuple(gpus)) for node_index, gpus in allocation
        )
        self.spec = cluster.spec
        self.topology = cluster.topology
        self.switch = cluster.switch
        self.nodes: List[NodeView] = [
            NodeView(cluster.nodes[node_index], gpus)
            for node_index, gpus in self.allocation
        ]
        self._gpus_per_node = per_node
        self.global_gpu_indices: Tuple[int, ...] = tuple(
            node_index * cluster.gpus_per_node + gpu_index
            for node_index, gpus in self.allocation
            for gpu_index in gpus
        )

    # -- Cluster protocol ------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def gpus_per_node(self) -> int:
        return self._gpus_per_node

    @property
    def num_gpus(self) -> int:
        return len(self.global_gpu_indices)

    def all_gpus(self):
        return [gpu for node in self.nodes for gpu in node.gpus]

    def gpu(self, rank: int):
        if not 0 <= rank < self.num_gpus:
            raise TopologyError(
                f"GPU rank {rank} out of range (0..{self.num_gpus - 1})"
            )
        node = self.nodes[rank // self._gpus_per_node]
        return node.gpus[rank % self._gpus_per_node]

    def node_of_rank(self, rank: int) -> NodeView:
        if not 0 <= rank < self.num_gpus:
            raise TopologyError(
                f"GPU rank {rank} out of range (0..{self.num_gpus - 1})"
            )
        return self.nodes[rank // self._gpus_per_node]

    def dram_for_rank(self, rank: int):
        node = self.node_of_rank(rank)
        gpu = self.gpu(rank)
        return node.drams[gpu.socket_index or 0]

    def global_rank(self, rank: int) -> int:
        """The shared machine's rank for the view's local rank."""
        return self.global_gpu_indices[rank]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ClusterView({self.num_gpus} GPUs over "
                f"{self.num_nodes} node(s): {self.allocation})")


def pool_demand(view: ClusterView, plan: MemoryPlan
                ) -> List[Tuple[MemoryPool, float]]:
    """``(pool, bytes)`` for each memory pool the view's ranks use: every
    rank asks its GPU for ``plan.gpu_total`` and its socket's DRAM for
    ``plan.cpu_total``, summed in rank order over ranks sharing a pool."""
    demand: Dict[int, Tuple[MemoryPool, float]] = {}
    for rank in range(view.num_gpus):
        for pool, amount in ((view.gpu(rank).memory, plan.gpu_total),
                             (view.dram_for_rank(rank).memory,
                              plan.cpu_total)):
            _, summed = demand.get(id(pool), (pool, 0.0))
            demand[id(pool)] = (pool, summed + amount)
    return list(demand.values())


def probe_view(cluster: Cluster, gpus: int) -> ClusterView:
    """A hypothetical view of ``gpus`` GPUs, for pre-admission planning.

    Pools are uniform across the machine, so a memory plan computed on
    this canonical shape (first k GPUs of node 0, or the first m whole
    nodes) equals the plan for any legal allocation of the same size.
    """
    per_node = cluster.gpus_per_node
    if gpus <= per_node:
        return ClusterView(cluster, [(0, tuple(range(gpus)))])
    if gpus % per_node:
        raise ConfigurationError(
            f"a {gpus}-GPU job neither fits one node "
            f"({per_node} GPUs) nor takes whole nodes"
        )
    num_nodes = gpus // per_node
    if num_nodes > cluster.num_nodes:
        raise ConfigurationError(
            f"a {gpus}-GPU job needs {num_nodes} nodes; "
            f"the cluster has {cluster.num_nodes}"
        )
    return ClusterView(cluster, [
        (node_index, tuple(range(per_node)))
        for node_index in range(num_nodes)
    ])
