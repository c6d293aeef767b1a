"""Collective scheduling algorithms: ring vs. (binomial) tree.

NCCL selects between ring and tree schedules per operation: rings are
bandwidth-optimal (every byte crosses each link once per phase) but pay
``2(n-1)`` sequential latency steps for an all-reduce; binomial trees pay
only ``O(log n)`` steps at up to 2x the per-link traffic, winning for
small, latency-bound payloads — especially across nodes, where a hop
costs tens of microseconds.  ``Algorithm.AUTO`` mirrors NCCL's heuristic:
tree below a payload threshold, ring above.
"""

from __future__ import annotations

import enum
import math
from typing import List, Sequence, Tuple

from ..errors import ConfigurationError
from .primitives import CollectiveKind


class Algorithm(enum.Enum):
    RING = "ring"
    TREE = "tree"
    AUTO = "auto"


#: AUTO picks the tree schedule below this payload (NCCL's crossover for
#: multi-node all-reduce sits in the hundreds of kilobytes).
TREE_PAYLOAD_THRESHOLD = 512 * 1024

#: Collectives with a tree schedule; the rest always use the ring.  A
#: tuple, so a membership test compares by identity: a set would hash
#: the kind through ``Enum.__hash__``, in Python, on every collective.
TREE_CAPABLE = (
    CollectiveKind.ALL_REDUCE,
    CollectiveKind.REDUCE,
    CollectiveKind.BROADCAST,
)


def choose_algorithm(algorithm: Algorithm, kind: CollectiveKind,
                     payload_bytes: float) -> Algorithm:
    """Resolve AUTO into RING or TREE for one operation."""
    if algorithm is Algorithm.RING:
        return Algorithm.RING
    if kind not in TREE_CAPABLE:
        return Algorithm.RING
    if algorithm is Algorithm.TREE:
        return Algorithm.TREE
    return (Algorithm.TREE if payload_bytes <= TREE_PAYLOAD_THRESHOLD
            else Algorithm.RING)


def tree_depth(group_size: int) -> int:
    """Levels in a binomial tree over ``group_size`` ranks."""
    if group_size < 1:
        raise ConfigurationError("group_size must be >= 1")
    if group_size == 1:
        return 0
    return math.ceil(math.log2(group_size))


def tree_edges(order: Sequence[int]) -> List[Tuple[int, int]]:
    """(child, parent) rank pairs of a binary tree over ``order``.

    The tree is built over the node-aware ring order, so subtrees stay
    node-local and only O(1) edges cross the inter-node fabric — the same
    property NCCL's dual binary trees have.
    """
    n = len(order)
    edges = []
    for index in range(1, n):
        parent_index = (index - 1) // 2
        edges.append((order[index], order[parent_index]))
    return edges


def tree_step_count(kind: CollectiveKind, group_size: int) -> int:
    """Sequential latency steps for the tree schedule."""
    depth = tree_depth(group_size)
    if kind is CollectiveKind.ALL_REDUCE:
        return 2 * depth  # reduce up + broadcast down
    return depth


def tree_edge_traffic_factor(kind: CollectiveKind) -> float:
    """Bytes each tree edge carries, as a multiple of the payload."""
    if kind is CollectiveKind.ALL_REDUCE:
        return 2.0  # full payload up (reduce) and down (broadcast)
    return 1.0
