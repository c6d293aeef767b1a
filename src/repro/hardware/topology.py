"""Cluster topology graph and route resolution.

Devices are vertices; :class:`~repro.hardware.link.Link` objects are edges.
A :class:`Route` is the ordered list of links a transfer traverses between
two devices, e.g. for cross-socket GPU-RoCE traffic::

    node0/gpu0 --PCIe-GPU--> node0/cpu0 --xGMI--> node0/cpu1
               --PCIe-NIC--> node0/nic1 --RoCE--> switch0 ...

Routing is shortest-path by a weight that prefers fewer hops, then higher
bandwidth — which reproduces NCCL's transport selection (NVLink inside a
node, the same-socket NIC for inter-node traffic).  Each Route knows its
end-to-end latency and attainable bandwidth, including the EPYC SerDes
contention derate of :mod:`repro.hardware.serdes`.  The topology owns the
fabric's :class:`~repro.hardware.link.IntervalLog`: a route, or the
:class:`RouteBundle` of a flow group's members, writes each interval it
carries there once, and every link's ledger reads its own records from
it.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import TopologyError
from ..units import GB, Bytes, BytesPerSecond, Seconds
from .devices import Device
from .link import IntervalLog, Link, LinkClass
from .serdes import SerdesContentionModel, TrafficProfile


#: A bandwidth pool: one direction of one link (half-duplex links have
#: the single direction 0).
PoolKey = Tuple[Link, int]


class _Charged:
    """A fixed sequence of links that each of its intervals loads at once.

    :meth:`record` writes an interval as one row of the fabric's
    :class:`~repro.hardware.link.IntervalLog`, keyed by the links' ledger
    slots in order and the degraded bits that held while it ran.
    """

    def __init__(self, links: Sequence[Link], log: IntervalLog) -> None:
        self.links: Tuple[Link, ...] = tuple(links)
        self._log = log
        self._slots = tuple(link.ledger.slot for link in self.links)
        #: the log key of an interval and the capacity epoch it was read at
        self._key = 0
        self._key_epoch = -1

    def record(self, start: Seconds, end: Seconds,
               num_bytes: Bytes) -> None:
        """Charge ``num_bytes`` over [start, end] to every link's ledger,
        once per position it holds: one row of the fabric's interval log.

        The row is stamped with each link's *current* degradation state,
        re-read only after a capacity change; the flow network settles
        intervals before any capacity change is applied, so the stamp is
        valid for the whole interval.
        """
        if not self.links:
            return
        log = self._log
        if self._key_epoch != log.capacity_epoch:
            mask = sum(1 << position for position, link
                       in enumerate(self.links) if link.is_degraded)
            self._key = log.key(self._slots, mask)
            self._key_epoch = log.capacity_epoch
        log.add_interval(start, end, num_bytes, self._key)


class Route(_Charged):
    """An ordered path of links between two devices.

    The pools a route loads, its per-profile SerDes derate, its latency
    and its links' ledger slots in the fabric's interval log depend only
    on its links, so they are computed once here; only link *capacities*
    vary during a run (fault injection).
    """

    def __init__(self, source: str, destination: str, links: Sequence[Link],
                 contention: SerdesContentionModel, log: IntervalLog) -> None:
        super().__init__(links, log)
        self.source = source
        self.destination = destination
        #: the smallest link capacity and the epoch it was read at
        self._bottleneck, self._bottleneck_epoch = 0.0, -1
        #: per-direction pool of every link along the route, in order
        self.pool_keys: Tuple[PoolKey, ...] = _pool_keys(source, self.links)
        # One attribute per profile, picked by identity in :meth:`derate`:
        # a dict keyed by the enum would hash it in Python on every flow.
        self._sustained_derate = contention.derate(
            self.links, TrafficProfile.SUSTAINED)
        self._bursty_derate = contention.derate(
            self.links, TrafficProfile.BURSTY)
        self._latency: Seconds = (
            self.base_latency * contention.latency_factor(self.links)
        )

    def __len__(self) -> int:
        return len(self.links)

    def __iter__(self):
        return iter(self.links)

    @property
    def is_loopback(self) -> bool:
        return not self.links

    @property
    def link_classes(self) -> Tuple[LinkClass, ...]:
        return tuple(link.link_class for link in self.links)

    def crosses(self, link_class: LinkClass) -> bool:
        return any(link.link_class is link_class for link in self.links)

    @property
    def base_latency(self) -> Seconds:
        """Sum of per-hop latencies, before contention inflation."""
        return sum(link.latency for link in self.links)

    def latency(self) -> Seconds:
        """End-to-end small-message latency including SerDes queueing."""
        return self._latency

    def derate(self, profile: TrafficProfile = TrafficProfile.SUSTAINED
               ) -> float:
        """SerDes contention bandwidth multiplier in (0, 1] for ``profile``."""
        if profile is TrafficProfile.SUSTAINED:
            return self._sustained_derate
        return self._bursty_derate

    def bottleneck(self) -> BytesPerSecond:
        """The smallest link capacity on the route, re-read only after
        a capacity change."""
        epoch = self._log.capacity_epoch
        if self._bottleneck_epoch != epoch:
            self._bottleneck = min(link.capacity_per_direction
                                   for link in self.links)
            self._bottleneck_epoch = epoch
        return self._bottleneck

    def bandwidth(self, profile: TrafficProfile = TrafficProfile.SUSTAINED
                  ) -> BytesPerSecond:
        """Attainable bytes/s: bottleneck link x contention derate."""
        if self.is_loopback:
            return float("inf")
        return self.bottleneck() * self.derate(profile)

    def transfer_time(self, num_bytes: Bytes,
                      profile: TrafficProfile = TrafficProfile.SUSTAINED
                      ) -> Seconds:
        """Seconds to move ``num_bytes`` over the route (latency + streaming)."""
        if self.is_loopback or num_bytes <= 0:
            return 0.0
        return self.latency() + num_bytes / self.bandwidth(profile)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        hops = " -> ".join(str(link.link_class) for link in self.links)
        return f"Route({self.source} -> {self.destination}: {hops or 'loopback'})"


class RouteBundle(_Charged):
    """The routes of a flow group's members, charged as one.

    The members of a group move the same bytes over the same intervals,
    so one interval of the group is one log row whose key names every
    member's slots, in member order; a link that two members cross is
    named, and charged, twice.  The pools the group loads are the union
    of its members' pools, each once.
    """

    def __init__(self, routes: Sequence[Route]) -> None:
        self.routes: Tuple[Route, ...] = tuple(routes)
        super().__init__([link for route in self.routes
                          for link in route.links], self.routes[0]._log)
        self.pool_keys: Tuple[PoolKey, ...] = tuple(dict.fromkeys(
            key for route in self.routes for key in route.pool_keys))
        self._bottleneck: Optional[BytesPerSecond] = None
        self._bottleneck_epoch = -1

    def bottleneck(self) -> Optional[BytesPerSecond]:
        """The members' common bottleneck, or ``None`` while a capacity
        change holds some member's route at a different one; re-read
        only after a capacity change."""
        epoch = self._log.capacity_epoch
        if self._bottleneck_epoch != epoch:
            first, *others = [route.bottleneck() for route in self.routes]
            self._bottleneck = (None if any(other != first for other in others)
                                else first)
            self._bottleneck_epoch = epoch
        return self._bottleneck


def _pool_keys(source: str, links: Sequence[Link]) -> Tuple[PoolKey, ...]:
    """Per-direction pool keys for every link along a route from ``source``."""
    keys: List[PoolKey] = []
    cursor = source
    for link in links:
        if link.endpoint_a == cursor:
            direction = 0
            cursor = link.endpoint_b
        else:
            direction = 1
            cursor = link.endpoint_a
        if not link.spec.duplex:
            direction = 0
        keys.append((link, direction))
    return tuple(keys)


class Topology:
    """The device/link graph for one cluster."""

    def __init__(self, contention: Optional[SerdesContentionModel] = None) -> None:
        self.contention = contention if contention is not None else SerdesContentionModel()
        self._devices: Dict[str, Device] = {}
        self._links: List[Link] = []
        self._adjacency: Dict[str, List[Link]] = {}
        self._route_cache: Dict[Tuple[str, str], Route] = {}
        self._fingerprint: Optional[str] = None
        #: every transfer interval settled on this fabric
        self.log = IntervalLog()

    # -- construction -------------------------------------------------------
    def add_device(self, device: Device) -> Device:
        if device.name in self._devices:
            raise TopologyError(f"duplicate device name {device.name!r}")
        self._devices[device.name] = device
        self._adjacency.setdefault(device.name, [])
        return device

    def add_link(self, link: Link) -> Link:
        for end in (link.endpoint_a, link.endpoint_b):
            if end not in self._devices:
                raise TopologyError(
                    f"link {link.name!r} references unknown device {end!r}"
                )
        self._links.append(link)
        self.log.attach(link.ledger)
        self._adjacency[link.endpoint_a].append(link)
        self._adjacency[link.endpoint_b].append(link)
        self._route_cache.clear()
        self._fingerprint = None
        return link

    # -- lookup --------------------------------------------------------------
    def device(self, name: str) -> Device:
        try:
            return self._devices[name]
        except KeyError:
            raise TopologyError(f"unknown device {name!r}") from None

    def has_device(self, name: str) -> bool:
        return name in self._devices

    @property
    def devices(self) -> Iterable[Device]:
        return self._devices.values()

    @property
    def links(self) -> Sequence[Link]:
        return tuple(self._links)

    def link_between(self, a: str, b: str) -> Link:
        """The direct link joining two adjacent devices."""
        for link in self._adjacency.get(a, ()):
            if link.connects(a, b):
                return link
        raise TopologyError(f"no direct link between {a!r} and {b!r}")

    def links_of_class(self, link_class: LinkClass) -> List[Link]:
        return [link for link in self._links if link.link_class is link_class]

    def links_of_device(self, name: str) -> List[Link]:
        """Every link with ``name`` as an endpoint (fault-injection blast
        radius of a device outage: a dark NIC takes its PCIe and RoCE
        attachments with it)."""
        if name not in self._devices:
            raise TopologyError(f"unknown device {name!r}")
        return list(self._adjacency.get(name, ()))

    # -- identity ------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable identity of the *static* fabric.

        A SHA-256 over every link's name, endpoints, multiplicity, and
        spec (class, rated bandwidth, latency, efficiency, duplexity)
        plus the SerDes contention parameters — everything a collective
        cost evaluation reads that does not vary during a run.  Two
        clusters built from the same preset share a fingerprint, so the
        fast path's collective-cost memo (:mod:`repro.sim.fastpath.memo`)
        can reuse entries across jobs; any wiring or calibration
        difference separates them.  Time-varying capacity (fault
        degradation) is deliberately excluded: that is the degradation
        stamp's job (:meth:`degradation_stamp`).
        """
        if self._fingerprint is None:
            contention = self.contention
            parts = [
                "contention|{}|{!r}|{!r}|{!r}|{!r}".format(
                    contention.enabled, contention.sustained_factor,
                    contention.bursty_factor,
                    contention.per_extra_joint_factor,
                    contention.latency_inflation,
                )
            ]
            for link in sorted(self._links, key=lambda item: item.name):
                spec = link.spec
                parts.append("|".join((
                    link.name, link.endpoint_a, link.endpoint_b,
                    str(link.count), str(spec.link_class),
                    repr(spec.bandwidth_per_direction), repr(spec.latency),
                    repr(spec.efficiency), repr(spec.duplex),
                )))
            body = "\n".join(parts)
            self._fingerprint = hashlib.sha256(
                body.encode("utf-8")
            ).hexdigest()
        return self._fingerprint

    def degradation_stamp(self) -> Tuple[Tuple[str, float], ...]:
        """The current fault-degradation state of the fabric.

        ``(link name, capacity fraction)`` for every link currently held
        below rated capacity, sorted by name; a healthy fabric stamps
        ``()``.  Combined with :meth:`fingerprint` this keys the
        collective-cost memo: degrading a link changes the stamp (so
        healthy-fabric entries cannot be served stale), and a fault
        reverting restores the empty stamp, re-validating them.
        """
        degraded = [(link.name, link.capacity_fraction)
                    for link in self._links if link.is_degraded]
        degraded.sort()
        return tuple(degraded)

    def reset_ledgers(self) -> None:
        self.log.clear()

    # -- routing --------------------------------------------------------------
    def route(self, source: str, destination: str) -> Route:
        """Resolve (and cache) the preferred route between two devices."""
        key = (source, destination)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if source not in self._devices:
            raise TopologyError(f"unknown source device {source!r}")
        if destination not in self._devices:
            raise TopologyError(f"unknown destination device {destination!r}")
        if source == destination:
            route = Route(source, destination, (), self.contention, self.log)
            self._route_cache[key] = route
            return route
        links = self._shortest_path(source, destination)
        route = Route(source, destination, links, self.contention, self.log)
        self._route_cache[key] = route
        return route

    def route_via(self, source: str, destination: str,
                  waypoints: Sequence[str]) -> Route:
        """Resolve a route forced through ``waypoints`` in order.

        The stress tests of Section III-C pin a test kernel's traffic
        through a *specific* NIC (same-socket vs. cross-socket); natural
        shortest-path routing would always pick the local NIC, so forced
        waypoints are required to reproduce the cross-socket scenarios.
        """
        stops = [source, *waypoints, destination]
        links: List[Link] = []
        for a, b in zip(stops, stops[1:]):
            if a == b:
                continue
            links.extend(self._shortest_path(a, b))
        return Route(source, destination, links, self.contention, self.log)

    def _shortest_path(self, source: str, destination: str) -> List[Link]:
        """Dijkstra over hop-dominant weights.

        Weight per edge = 1 + epsilon/bandwidth, so fewer hops always win
        and ties break toward the fattest pipe (NVLink over PCIe).
        """
        dist: Dict[str, float] = {source: 0.0}
        prev: Dict[str, Tuple[str, Link]] = {}
        heap: List[Tuple[float, str]] = [(0.0, source)]
        visited = set()
        while heap:
            d, name = heapq.heappop(heap)
            if name in visited:
                continue
            visited.add(name)
            if name == destination:
                break
            for link in self._adjacency[name]:
                neighbor = link.other_end(name)
                weight = 1.0 + 1e-3 / max(link.capacity_per_direction / GB, 1e-9)
                nd = d + weight
                if nd < dist.get(neighbor, float("inf")):
                    dist[neighbor] = nd
                    prev[neighbor] = (name, link)
                    heapq.heappush(heap, (nd, neighbor))
        if destination not in prev:
            raise TopologyError(f"no route from {source!r} to {destination!r}")
        path: List[Link] = []
        cursor = destination
        while cursor != source:
            parent, link = prev[cursor]
            path.append(link)
            cursor = parent
        path.reverse()
        return path
