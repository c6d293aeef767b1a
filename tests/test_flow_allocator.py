"""The component-local flow allocator against the global reference.

:class:`~repro.sim.flows.FlowNetwork` re-rates only the component of
flows a start or finish touches; :func:`~repro.sim.flows.reference_rates`
water-fills a set of flows in one global allocation.  The property tests
drive random flow mixes, with link faults, through a live network and
check the network's state after every engine step:

* **byte-identical** to the reference run separately on each component:
  the network fills each component exactly as the reference fills that
  component alone;
* **within 1e-12 relative** of the reference over all active flows at
  once: its global rounds add the same levels in a different order;
* the max-min certificate, **within 1e-9 relative**: every flow is at its
  cap, or crosses a pool used to at least 1 - 1e-9 of its capacity on
  which no flow has a higher rate; no pool carries more than its capacity;
* after the run, **within 1e-9 relative**, each link's ledger holds the
  bytes its flows moved (the ledger sums per-interval increments, the
  flows their totals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.hardware import dual_node_cluster, paper_cluster, single_node_cluster
from repro.hardware.devices import Device, DeviceKind
from repro.hardware.link import Link, LinkClass, LinkSpec
from repro.hardware.serdes import TrafficProfile
from repro.hardware.topology import Topology
from repro.sim.engine import Engine
from repro.sim.flows import Flow, FlowNetwork, reference_rates

CLUSTERS = {
    "single": single_node_cluster,
    "dual": dual_node_cluster,
    "paper4": lambda: paper_cluster(4),
}
DEVICES = {name: sorted(d.name for d in build().topology.devices)
           for name, build in CLUSTERS.items()}
LINKS = {name: sorted(link.name for link in build().topology.links)
         for name, build in CLUSTERS.items()}

#: relative slack of the max-min certificate and the ledger balance
CERT_RTOL = 1e-9
#: relative agreement with the global reference
GLOBAL_RTOL = 1e-12


@dataclass(frozen=True)
class FlowSpec:
    source: str
    destination: str
    num_bytes: float
    profile: TrafficProfile
    weight_multiplier: float
    issue_at: float
    cap: Optional[float] = None


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def components(flows: List[Flow]) -> List[List[Flow]]:
    """Flows grouped by shared pools (union-find), each group in id order."""
    parent = {flow.id: flow.id for flow in flows}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner: Dict[Tuple[str, int], int] = {}
    for flow in flows:
        for link, direction in flow.route.pool_keys:
            key = (link.name, direction)
            if key in owner:
                parent[find(flow.id)] = find(owner[key])
            else:
                owner[key] = flow.id
    groups: Dict[int, List[Flow]] = {}
    for flow in flows:
        groups.setdefault(find(flow.id), []).append(flow)
    return list(groups.values())


def assert_matches_reference(flows: List[Flow]) -> None:
    rates = {flow.id: flow.rate for flow in flows}
    for group in components(flows):
        expected = reference_rates(group)
        for flow in group:
            assert rates[flow.id].hex() == expected[flow.id].hex(), (
                f"flow #{flow.id}: {rates[flow.id]!r} vs component "
                f"reference {expected[flow.id]!r}")
    for flow_id, rate in reference_rates(flows).items():
        assert math.isclose(rates[flow_id], rate, rel_tol=GLOBAL_RTOL), (
            f"flow #{flow_id}: {rates[flow_id]!r} vs global reference {rate!r}")


def assert_max_min(flows: List[Flow]) -> None:
    """Feasible, and every flow bottlenecked at its cap or on a full pool."""
    derived = {flow.id: flow.capacity() for flow in flows}
    used: Dict[Tuple[str, int], float] = {}
    capacity: Dict[Tuple[str, int], float] = {}
    top_rate: Dict[Tuple[str, int], float] = {}
    for flow in flows:
        assert flow.rate >= 0.0
        weight, _ = derived[flow.id]
        for link, direction in flow.route.pool_keys:
            key = (link.name, direction)
            used[key] = used.get(key, 0.0) + flow.rate * weight
            capacity[key] = link.capacity_per_direction
            top_rate[key] = max(top_rate.get(key, 0.0), flow.rate)
    for key, load in used.items():
        assert load <= capacity[key] * (1 + CERT_RTOL), (
            f"pool {key} carries {load!r} > capacity {capacity[key]!r}")
    for flow in flows:
        _, cap = derived[flow.id]
        if flow.rate >= cap * (1 - CERT_RTOL):
            continue
        bottlenecks = [
            (link.name, direction)
            for link, direction in flow.route.pool_keys
            if used[(link.name, direction)]
            >= capacity[(link.name, direction)] * (1 - CERT_RTOL)
            and flow.rate >= top_rate[(link.name, direction)] * (1 - CERT_RTOL)
        ]
        assert bottlenecks, (
            f"flow #{flow.id} at {flow.rate!r} is below its cap {cap!r} "
            f"and crosses no saturated pool it tops")


def assert_ledgers_balance(cluster, flows: List[Flow]) -> None:
    moved: Dict[str, float] = {}
    for flow in flows:
        for link in flow.route.links:
            moved[link.name] = (moved.get(link.name, 0.0)
                                + flow.bytes_total - flow.bytes_remaining)
    for link in cluster.topology.links:
        expected = moved.get(link.name, 0.0)
        assert math.isclose(link.ledger.total_bytes, expected,
                            rel_tol=CERT_RTOL), (
            f"{link.name}: ledger {link.ledger.total_bytes!r} vs flows "
            f"{expected!r}")


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def simulate(cluster_name: str, specs: List[FlowSpec],
             faults: List[FaultEvent]):
    """Run ``specs`` (and ``faults``) to completion on a fresh cluster,
    checking the allocation after every engine step.  Returns the
    cluster, the started flows and the number of checked states."""
    cluster = CLUSTERS[cluster_name]()
    engine = Engine()
    network = FlowNetwork(engine)
    if faults:
        FaultInjector(FaultPlan(events=list(faults), seed=3), cluster,
                      engine, network)
    started: Dict[int, Flow] = {}
    for spec in specs:
        route = cluster.topology.route(spec.source, spec.destination)
        engine.schedule_at(spec.issue_at, _issue, network, route, spec)
    checked = 0
    engine.run(until=0.0)  # arms the fault injector
    for _ in range(100_000):
        active = network.active_flows()
        for flow in active:
            started.setdefault(flow.id, flow)
        if active:
            assert_matches_reference(active)
            assert_max_min(active)
            checked += 1
        if engine.peek() is None:
            break
        engine.step()
    else:  # pragma: no cover - a runaway schedule is itself a failure
        pytest.fail("simulation did not drain")
    assert network.active_count == 0
    return cluster, sorted(started.values(), key=lambda flow: flow.id), checked


def _issue(network: FlowNetwork, route, spec: FlowSpec) -> None:
    network.transfer(route, spec.num_bytes, profile=spec.profile,
                     cap=spec.cap, weight_multiplier=spec.weight_multiplier)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def flow_specs(draw, devices: List[str], *, issue_at=None) -> FlowSpec:
    source = draw(st.sampled_from(devices))
    destination = draw(st.sampled_from(devices).filter(
        lambda name: name != source))
    return FlowSpec(
        source=source,
        destination=destination,
        num_bytes=draw(st.floats(1e6, 4e9)),
        profile=draw(st.sampled_from(list(TrafficProfile))),
        weight_multiplier=draw(st.sampled_from([1.0, 1.7, 3.3])),
        issue_at=(draw(st.floats(0.0, 0.04)) if issue_at is None
                  else issue_at),
        cap=draw(st.one_of(st.none(), st.floats(2e9, 4e10))),
    )


@st.composite
def fault_events(draw, cluster_name: str) -> FaultEvent:
    target = draw(st.sampled_from(DEVICES[cluster_name]
                                  + LINKS[cluster_name]))
    kind = draw(st.sampled_from([FaultKind.LINK_DEGRADE, FaultKind.LINK_DOWN,
                                 FaultKind.LINK_FLAP]))
    start = draw(st.floats(0.0, 0.05))
    duration = draw(st.floats(1e-4, 0.05))
    if kind is FaultKind.LINK_FLAP:
        period = duration / draw(st.integers(1, 6))
        return FaultEvent(target=target, kind=kind, start=start,
                          duration=duration, magnitude=1.0, period=period)
    magnitude = (1.0 if kind is FaultKind.LINK_DOWN
                 else draw(st.floats(0.1, 0.9)))
    return FaultEvent(target=target, kind=kind, start=start,
                      duration=duration, magnitude=magnitude)


@st.composite
def scenarios(draw):
    cluster_name = draw(st.sampled_from(sorted(CLUSTERS)))
    devices = DEVICES[cluster_name]
    specs = draw(st.lists(flow_specs(devices), min_size=1, max_size=10))
    faults = draw(st.lists(fault_events(cluster_name), max_size=3))
    topology = CLUSTERS[cluster_name]().topology
    for fault in faults:
        if not draw(st.booleans()):
            continue
        # A flow issued before the fault and activated after it: it
        # leaves the target while the fault lands mid-latency.
        source = (fault.target if topology.has_device(fault.target)
                  else next(link.endpoint_a for link in topology.links
                            if link.name == fault.target))
        spec = draw(flow_specs(devices, issue_at=0.0))
        if source == spec.destination:
            continue
        latency = topology.route(source, spec.destination).latency()
        if fault.start < latency:
            continue
        specs.append(FlowSpec(source, spec.destination, spec.num_bytes,
                              spec.profile, spec.weight_multiplier,
                              fault.start - latency / 2, spec.cap))
    return cluster_name, specs, faults


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@given(scenario=scenarios())
@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_allocator_matches_reference_and_certificate(scenario):
    """Byte-identical per component, 1e-12 relative globally, certificate
    and ledger balance within 1e-9 relative (see the module docstring)."""
    cluster_name, specs, faults = scenario
    cluster, flows, checked = simulate(cluster_name, specs, faults)
    assert checked > 0
    assert all(flow.done for flow in flows)
    assert len(flows) == len(specs)
    assert_ledgers_balance(cluster, flows)


def test_four_transfer_case_fills_to_caps_and_pools():
    """Regression: a round whose delta is a cap residual must freeze that
    flow even when ``rate + residual`` rounds one ulp below the cap.
    The water-filling used to stop after that round, leaving two flows
    far below their max-min rates.  Rates checked to 4 significant
    figures against the hand-derived allocation."""
    specs = [
        FlowSpec("node1/gpu2", "node1/nvme1", 1e12, TrafficProfile.SUSTAINED,
                 3.3, 0.0),
        FlowSpec("node0/dram0", "node1/cpu1", 1e12, TrafficProfile.BURSTY,
                 1.7, 0.0),
        FlowSpec("node0/nic1", "switch0", 1e12, TrafficProfile.SUSTAINED,
                 1.0, 0.0),
        FlowSpec("node0/dram0", "node1/nvme2", 1e12, TrafficProfile.SUSTAINED,
                 1.0, 0.0),
    ]
    cluster = dual_node_cluster()
    engine = Engine()
    network = FlowNetwork(engine)
    routes = [cluster.topology.route(s.source, s.destination) for s in specs]
    for spec, route in zip(specs, routes):
        network.transfer(route, spec.num_bytes, profile=spec.profile,
                         weight_multiplier=spec.weight_multiplier)
    engine.run(until=max(route.latency() for route in routes))
    flows = network.active_flows()
    assert len(flows) == 4
    rates = reference_rates(flows)
    assert rates[2] == pytest.approx(23.25e9, rel=1e-4)
    assert rates[1] == pytest.approx(9.535e9, rel=1e-4)
    assert_matches_reference(flows)
    assert_max_min(flows)


def test_flow_issued_before_a_fault_is_rated_at_the_faulted_capacity():
    """A flow created before a link degrades but activated after must be
    rated at the degraded capacity (byte-identical to the reference)."""
    cluster = single_node_cluster()
    engine = Engine()
    network = FlowNetwork(engine)
    route = cluster.topology.route("node0/gpu0", "node0/gpu1")
    fault_at = route.latency() / 2
    FaultInjector(FaultPlan(events=[FaultEvent(
        target=route.links[0].name, kind=FaultKind.LINK_DEGRADE,
        start=fault_at, duration=1.0, magnitude=0.5)]), cluster, engine,
        network)
    network.transfer(route, 1e12)
    engine.run(until=route.latency())
    (flow,) = network.active_flows()
    assert flow.rate == reference_rates([flow])[flow.id]
    assert flow.rate == pytest.approx(
        route.links[0].base_capacity_per_direction * 0.5, rel=1e-12)


def test_unbounded_flow_is_a_named_error():
    """A flow no cap or pool bounds (a link of infinite bandwidth) cannot
    be rated: both allocators name it instead of leaving it at rate 0."""
    topology = Topology()
    for name in ("a", "b"):
        topology.add_device(Device(name, DeviceKind.CPU))
    topology.add_link(Link("wire", LinkSpec(
        link_class=LinkClass.DRAM, bandwidth_per_direction=float("inf"),
        latency=0.0), "a", "b"))
    engine = Engine()
    network = FlowNetwork(engine)
    network.transfer(topology.route("a", "b"), 1e9, label="unbounded")
    with pytest.raises(SimulationError, match=r"#0 unbounded"):
        engine.run()
    flow = Flow(topology.route("a", "b"), 1e9, flow_id=0,
                profile=TrafficProfile.BURSTY, cap=None, label="unbounded")
    with pytest.raises(SimulationError, match=r"#0 unbounded"):
        reference_rates([flow])
