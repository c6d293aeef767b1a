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

Settlement is tested the same way: the same scenarios and three
training runs also run under :class:`EagerFlowNetwork`, which settles
every active flow at every change, and finish instants, ledger byte
totals, sampled bins and degraded windows must agree **within 1e-12**,
with no more ledger records than the eager run keeps.

:meth:`~repro.sim.flows.FlowNetwork.launch` is tested against
:func:`all_of_launch`, the one event per transfer and ``AllOf`` it
replaces: grouped scenarios under three tie orders, launched on a
:class:`PerFlowNetwork`, must be **bit-identical** in fire instants,
ledger records and event counts, and the same three training runs, on
the grouping network, in headline fields, ledger records and event
counts.

Flow groups are tested against :class:`PerFlowNetwork`, in which every
transfer is a group of its own: ring-shaped launches under faults and
three tie orders must agree **within 1e-12 relative** in launch and
transfer finish instants, ledger byte totals, sampled bins and degraded
windows, and every engine step of the grouped run must pass the checks
above.  Two planted faults must fail that harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.analysis.determinism.differ import headline_fields
from repro.api import RunSpec, run_spec
from repro.api.build import build_cluster
from repro.errors import SimulationError
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.hardware import dual_node_cluster, paper_cluster, single_node_cluster
from repro.hardware.devices import Device, DeviceKind
from repro.hardware.link import Link, LinkClass, LinkSpec
from repro.hardware.serdes import TrafficProfile
from repro.hardware.topology import RouteBundle, Topology
from repro.sim import flows as flows_module
from repro.sim.engine import Engine, ReversedTies, SeededTies, TieOrder
from repro.sim.flows import Flow, FlowGroup, FlowNetwork, reference_rates

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

class EagerFlowNetwork(FlowNetwork):
    """The eager reference for lazy settlement: every active flow is
    settled at every start and finish, not only the re-rated ones."""

    def _reallocate(self, touched):
        self.settle()
        super()._reallocate(touched)


@dataclass
class Run:
    """What one :func:`simulate` call leaves behind."""

    cluster: object
    #: every started flow, in id order
    flows: List[Flow]
    #: engine states the allocation was checked in
    checked: int
    #: completion instant of each spec, by spec index
    finished: Dict[int, float]


def simulate(cluster_name: str, specs: List[FlowSpec],
             faults: List[FaultEvent], *, network_class=FlowNetwork,
             check: bool = True) -> Run:
    """Run ``specs`` (and ``faults``) to completion on a fresh cluster,
    checking the allocation after every engine step if ``check``."""
    cluster = CLUSTERS[cluster_name]()
    engine = Engine()
    network = network_class(engine)
    if faults:
        FaultInjector(FaultPlan(events=list(faults), seed=3), cluster,
                      engine, network)
    started: Dict[int, Flow] = {}
    finished: Dict[int, float] = {}
    for index, spec in enumerate(specs):
        route = cluster.topology.route(spec.source, spec.destination)
        engine.schedule_at(spec.issue_at, _issue, network, route, spec,
                           index, finished)
    checked = 0
    engine.run(until=0.0)  # arms the fault injector
    for _ in range(100_000):
        active = network.active_flows()
        for flow in active:
            started.setdefault(flow.id, flow)
        if active and check:
            assert_matches_reference(active)
            assert_max_min(active)
            checked += 1
        if engine.peek() is None:
            break
        engine.step()
    else:  # pragma: no cover - a runaway schedule is itself a failure
        pytest.fail("simulation did not drain")
    assert network.active_count == 0
    return Run(cluster, sorted(started.values(), key=lambda flow: flow.id),
               checked, finished)


def _issue(network: FlowNetwork, route, spec: FlowSpec, index: int,
           finished: Dict[int, float]) -> None:
    engine = network.engine
    network.transfer(
        route, spec.num_bytes, profile=spec.profile, cap=spec.cap,
        weight_multiplier=spec.weight_multiplier,
    ).add_callback(lambda event: finished.setdefault(index, engine.now))


def assert_same_ledgers(links, reference_links, end: float) -> None:
    """Ledgers against reference ones, link by link: equal bytes and
    sampled bins within 1e-12 and the same degraded windows.  A degraded
    window can end where a flow finishes, and finish instants agree
    within 1e-12, so window ends are compared at that tolerance.  Every
    degraded window of ``links`` also lies inside a span in which the
    link ran below its rated capacity."""
    for link, reference in zip(links, reference_links):
        assert link.name == reference.name
        assert math.isclose(link.ledger.total_bytes,
                            reference.ledger.total_bytes,
                            rel_tol=GLOBAL_RTOL), link.name
        bins = link.ledger.sample(0.0, end, 200)
        wanted = reference.ledger.sample(0.0, end, 200)
        peak = max(wanted)
        for got, want in zip(bins, wanted):
            assert abs(got - want) <= GLOBAL_RTOL * peak, link.name
        windows = link.ledger.degraded_intervals()
        reference_windows = reference.ledger.degraded_intervals()
        assert len(windows) == len(reference_windows), link.name
        for got, want in zip(windows, reference_windows):
            for got_at, want_at in zip(got, want):
                assert math.isclose(got_at, want_at,
                                    rel_tol=GLOBAL_RTOL), link.name
        for start, stop in windows:
            assert (link.max_capacity_over(start, stop)
                    < link.base_capacity_per_direction), (
                f"{link.name}: degraded record over [{start}, {stop}] "
                f"reaches into rated capacity")


def assert_same_accounting(lazy_links, eager_links, end: float) -> None:
    """Lazy ledgers against eager ones: :func:`assert_same_ledgers`, and
    no more records on any link."""
    assert_same_ledgers(lazy_links, eager_links, end)
    for lazy, eager in zip(lazy_links, eager_links):
        assert len(lazy.ledger) <= len(eager.ledger), lazy.name


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
    run = simulate(cluster_name, specs, faults)
    assert run.checked > 0
    assert all(flow.done for flow in run.flows)
    assert len(run.flows) == len(specs)
    assert_ledgers_balance(run.cluster, run.flows)


@given(scenario=scenarios())
@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_lazy_settlement_matches_eager(scenario):
    """Settling only re-rated and finishing flows accounts what settling
    every flow at every change does: finish instants, byte totals and
    sampled bins within 1e-12, the same degraded windows, no more
    ledger records."""
    cluster_name, specs, faults = scenario
    lazy = simulate(cluster_name, specs, faults, check=False)
    eager = simulate(cluster_name, specs, faults,
                     network_class=EagerFlowNetwork, check=False)
    assert sorted(lazy.finished) == list(range(len(specs)))
    assert sorted(eager.finished) == list(range(len(specs)))
    for index, instant in eager.finished.items():
        assert math.isclose(lazy.finished[index], instant,
                            rel_tol=GLOBAL_RTOL), index
    assert_same_accounting(lazy.cluster.topology.links,
                           eager.cluster.topology.links,
                           max(eager.finished.values()))


#: training runs for the lazy/eager differential: the collective-heavy
#: dual-node case, NVMe offload traffic, and degraded stamps under flaps
TRAINING_RUNS = {
    "zero3-2node": RunSpec("zero3", size_billions=0.7, nodes=2,
                           iterations=4),
    "zero3_opt_nvme": RunSpec("zero3_opt_nvme", size_billions=1.4,
                              iterations=4),
    "zero2-xgmi-flap": RunSpec(
        "zero2", size_billions=1.4, nodes=2, iterations=4,
        faults=("node0/xgmi:flap@t=0.05,dur=0.5,period=0.07,mag=0.6",)),
}


@pytest.mark.parametrize("name", sorted(TRAINING_RUNS))
def test_lazy_settlement_matches_eager_on_training_runs(name, monkeypatch):
    """The differential above on full training runs: iteration times and
    per-flow finish instants within 1e-12, ledgers as in
    :func:`assert_same_accounting`."""
    spec = TRAINING_RUNS[name].replace(trace=True)
    lazy_cluster = build_cluster(spec)
    lazy = run_spec(spec, cluster=lazy_cluster)
    monkeypatch.setattr("repro.sim.probes.FlowNetwork", EagerFlowNetwork)
    eager_cluster = build_cluster(spec)
    eager = run_spec(spec, cluster=eager_cluster)
    times = lazy.execution.iteration_times
    assert len(times) == len(eager.execution.iteration_times) == 4
    for got, want in zip(times, eager.execution.iteration_times):
        assert math.isclose(got, want, rel_tol=GLOBAL_RTOL)
    lazy_ends = {span.flow_id: span.end for span in lazy.trace.flows}
    eager_ends = {span.flow_id: span.end for span in eager.trace.flows}
    assert lazy_ends.keys() == eager_ends.keys()
    for flow_id, end in eager_ends.items():
        assert math.isclose(lazy_ends[flow_id], end, rel_tol=GLOBAL_RTOL)
    assert_same_accounting(lazy_cluster.topology.links,
                           eager_cluster.topology.links,
                           eager.execution.total_time)
    if spec.faults:
        assert any(link.ledger.degraded_intervals()
                   for link in lazy_cluster.topology.links)
    assert (sum(len(link.ledger) for link in lazy_cluster.topology.links)
            < sum(len(link.ledger) for link in eager_cluster.topology.links))


# ---------------------------------------------------------------------------
# one launch event against an AllOf over one event per transfer
# ---------------------------------------------------------------------------

def all_of_launch(network: FlowNetwork, transfers, *,
                  profile=TrafficProfile.BURSTY, label="", hold=None):
    """The reference for :meth:`FlowNetwork.launch`: one event per
    transfer and one ``Timeout`` for the hold, joined by an ``AllOf``."""
    engine = network.engine
    events = [network.transfer(route, num_bytes, profile=profile, cap=cap,
                               label=label, weight_multiplier=weight)
              for route, num_bytes, weight, cap in transfers]
    if hold is not None:
        events.append(engine.timeout(hold))
    return engine.all_of(events)


@dataclass(frozen=True)
class LaunchSpec:
    issue_at: float
    profile: TrafficProfile
    hold: Optional[float]
    #: ``(source, destination, bytes, weight_multiplier, cap)`` each
    entries: Tuple[Tuple[str, str, float, float, Optional[float]], ...]


@st.composite
def launch_scenarios(draw):
    """:func:`scenarios` with same-instant specs grouped into launches,
    each with a drawn hold and drawn zero-byte and loopback entries,
    plus an optional launch with no flow at all."""
    cluster_name, specs, faults = draw(scenarios())
    devices = DEVICES[cluster_name]
    groups = draw(st.lists(st.integers(0, 3), min_size=len(specs),
                           max_size=len(specs)))
    launches = []
    for group in sorted(set(groups)):
        members = [spec for spec, at in zip(specs, groups) if at == group]
        entries = [(spec.source, spec.destination, spec.num_bytes,
                    spec.weight_multiplier, spec.cap) for spec in members]
        if draw(st.booleans()):
            entries.insert(draw(st.integers(0, len(entries))),
                           (members[0].source, members[0].destination,
                            0.0, 1.0, None))
        if draw(st.booleans()):
            device = draw(st.sampled_from(devices))
            entries.insert(draw(st.integers(0, len(entries))),
                           (device, device, 1e6, 1.0, None))
        launches.append(LaunchSpec(
            members[0].issue_at, members[0].profile,
            draw(st.one_of(st.none(), st.floats(0.0, 0.05))),
            tuple(entries)))
    if draw(st.booleans()):
        launches.append(LaunchSpec(
            draw(st.floats(0.0, 0.04)), TrafficProfile.BURSTY,
            draw(st.one_of(st.none(), st.floats(0.0, 0.05))), ()))
    return cluster_name, launches, faults


def ledger_records(cluster) -> Dict[str, List[Tuple[str, str, str, bool]]]:
    """Every link's ledger records in order, floats as ``.hex()``."""
    return {link.name: [(record.start.hex(), record.end.hex(),
                         float(record.num_bytes).hex(), record.degraded)
                        for record in link.ledger]
            for link in cluster.topology.links}


@dataclass
class LaunchRun:
    """What one :func:`run_launches` call leaves behind."""

    cluster: object
    network: FlowNetwork
    #: fire instant of each launch, by launch index
    fired: Dict[int, float]
    #: finish instant of each transfer, by flow id (observed runs only)
    closed: Dict[int, float]
    #: engine states the allocation was checked in
    checked: int


class FinishLog:
    """An instrument that notes when each transfer finished."""

    def __init__(self) -> None:
        self.closed: Dict[int, float] = {}

    def flow_closed(self, flow: Flow, now: float) -> None:
        assert flow.id not in self.closed
        self.closed[flow.id] = now


def run_launches(cluster_name: str, launches: List[LaunchSpec],
                 faults: List[FaultEvent], *, tie_order: TieOrder,
                 start=FlowNetwork.launch, network_class=FlowNetwork,
                 observe: bool = False, check: bool = False) -> LaunchRun:
    """Run ``launches`` to completion on a ``network_class`` network,
    each started by ``start``; with ``observe`` a :class:`FinishLog` is
    attached, and with ``check`` the allocation is checked as in
    :func:`simulate` after every engine step."""
    cluster = CLUSTERS[cluster_name]()
    engine = Engine(tie_order=tie_order)
    network = network_class(engine)
    finishes = FinishLog()
    if observe:
        network.observers = (finishes,)
    if faults:
        FaultInjector(FaultPlan(events=list(faults), seed=3), cluster,
                      engine, network)
    fired: Dict[int, float] = {}
    topology = cluster.topology

    def issue(index: int, spec: LaunchSpec) -> None:
        transfers = [(topology.route(source, destination), num_bytes,
                      weight, cap)
                     for source, destination, num_bytes, weight, cap
                     in spec.entries]
        start(network, transfers, profile=spec.profile,
              label=f"launch{index}", hold=spec.hold).add_callback(
            lambda event: fired.setdefault(index, engine.now))

    for index, spec in enumerate(launches):
        engine.schedule_at(spec.issue_at, issue, index, spec)
    checked = 0
    engine.run(until=0.0)  # arms the fault injector
    for _ in range(1_000_000):
        if engine.peek() is None:
            break
        if check:
            active = network.active_flows()
            if active:
                assert_matches_reference(active)
                assert_max_min(active)
                checked += 1
        engine.step()
    else:  # pragma: no cover - a runaway schedule is itself a failure
        pytest.fail("simulation did not drain")
    assert network.active_count == 0
    return LaunchRun(cluster, network, fired, finishes.closed, checked)


class PerFlowNetwork(FlowNetwork):
    """The reference for flow groups: every transfer of a launch is a
    group of its own."""

    @staticmethod
    def _lockstep_key(route, num_bytes, weight_multiplier, cap, profile):
        return num_bytes, weight_multiplier, cap, object()


class GroupCountingNetwork(FlowNetwork):
    """The grouped network, counting the groups of two or more members
    it activates and the parts that splits make."""

    def __init__(self, engine: Engine) -> None:
        super().__init__(engine)
        self.grouped = 0
        self.parts = 0

    def _add(self, flow, touched):
        self.grouped += flow.size > 1
        super()._add(flow, touched)

    def _part(self, group, positions):
        self.parts += 1
        return super()._part(group, positions)


TIE_ORDERS = (TieOrder(), ReversedTies(), SeededTies(11))


def assert_groups_match(grouped: LaunchRun, reference: LaunchRun) -> bool:
    """Fire and finish instants within 1e-12 relative, and the ledgers
    as in :func:`assert_same_ledgers`; returns whether every instant and
    ledger byte total is also bit-identical.  Records are not counted: a
    group settles all its members whenever one member's component
    changes, so it can leave more of them."""
    assert grouped.fired.keys() == reference.fired.keys()
    assert grouped.closed.keys() == reference.closed.keys()
    pairs = ([(grouped.fired[index], instant)
              for index, instant in reference.fired.items()]
             + [(grouped.closed[flow_id], instant)
                for flow_id, instant in reference.closed.items()])
    for got, want in pairs:
        assert math.isclose(got, want, rel_tol=GLOBAL_RTOL), (got, want)
    links = grouped.cluster.topology.links
    reference_links = reference.cluster.topology.links
    assert_same_ledgers(links, reference_links, max(reference.fired.values()))
    return (all(got == want for got, want in pairs)
            and all(link.ledger.total_bytes == other.ledger.total_bytes
                    for link, other in zip(links, reference_links)))


def exact_results(run: LaunchRun):
    """Each launch's fire instant as ``.hex()``, each link's ledger
    records and the engine's event counts."""
    engine = run.network.engine
    return ({index: instant.hex() for index, instant in run.fired.items()},
            ledger_records(run.cluster), engine.events_processed,
            engine.events_folded)


@given(scenario=launch_scenarios())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_launch_matches_all_of_transfers(scenario):
    """One launch event fires when and as the ``AllOf`` over one event
    per transfer and the hold's ``Timeout`` does, and leaves the same
    ledger records and event counts, under every tie order.  The
    launches run on a :class:`PerFlowNetwork`, where every transfer is a
    unit of its own as under the ``AllOf``; flow groups are held to that
    network by :func:`test_flow_groups_match_one_flow_per_transfer`."""
    cluster_name, launches, faults = scenario
    for tie_order in TIE_ORDERS:
        launched = run_launches(cluster_name, launches, faults,
                                tie_order=tie_order,
                                network_class=PerFlowNetwork)
        reference = run_launches(cluster_name, launches, faults,
                                 tie_order=tie_order, start=all_of_launch)
        assert sorted(launched.fired) == list(range(len(launches)))
        assert exact_results(launched) == exact_results(reference), (
            tie_order.name)


@pytest.mark.parametrize("name", sorted(TRAINING_RUNS))
def test_launch_matches_all_of_transfers_on_training_runs(name,
                                                          monkeypatch):
    """Collectives launched as an ``AllOf`` over one event per flow give
    bit-identical headline fields, ledger records and event counts."""
    spec = TRAINING_RUNS[name]

    def run():
        cluster = build_cluster(spec)
        metrics = run_spec(spec, cluster=cluster)
        return ({key: value.hex() for key, value
                 in headline_fields(metrics, cluster).items()},
                ledger_records(cluster),
                metrics.execution.events_processed,
                metrics.execution.events_folded)

    launched = run()

    def launch_as_all_of(self, plan, launch_count):
        return all_of_launch(self.network, plan.transfers,
                             profile=self.profile,
                             label=self.label_prefix + plan.label,
                             hold=plan.base_overhead * launch_count)

    monkeypatch.setattr("repro.collectives.nccl.NcclCommunicator._launch",
                        launch_as_all_of)
    assert launched == run()


# ---------------------------------------------------------------------------
# flow groups against one flow per transfer
# ---------------------------------------------------------------------------

@st.composite
def ring_scenarios(draw):
    """Ring-shaped launches: each has one payload, weight multiplier and
    cap for its 2-8 entries, which follow a ring through drawn GPUs or
    drawn devices of any kind; plus up to three faults and a tie order.
    Entries whose routes share latency, derate and bottleneck form flow
    groups, as the ring flows of a collective do."""
    cluster_name = draw(st.sampled_from(sorted(CLUSTERS)))
    devices = DEVICES[cluster_name]
    gpus = [name for name in devices if "/gpu" in name]
    launches = []
    for _ in range(draw(st.integers(1, 3))):
        ring = draw(st.lists(st.sampled_from(draw(st.sampled_from(
            [gpus, devices]))), min_size=2, max_size=8, unique=True))
        payload = (draw(st.floats(1e6, 4e9)),
                   draw(st.sampled_from([1.0, 1.7, 3.3])),
                   draw(st.one_of(st.none(), st.floats(2e9, 4e10))))
        launches.append(LaunchSpec(
            draw(st.floats(0.0, 0.04)),
            draw(st.sampled_from(list(TrafficProfile))),
            draw(st.one_of(st.none(), st.floats(0.0, 0.05))),
            tuple((source, destination, *payload) for source, destination
                  in zip(ring, ring[1:] + ring[:1]))))
    faults = draw(st.lists(fault_events(cluster_name), max_size=3))
    return cluster_name, launches, faults, draw(st.sampled_from(TIE_ORDERS))


@given(scenario=ring_scenarios())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_flow_groups_match_one_flow_per_transfer(scenario):
    """Launches run as flow groups and as one flow per transfer agree:
    launch and transfer finish instants, ledger byte totals, sampled bins
    and degraded windows within 1e-12 relative.  Every engine step of
    the grouped run also passes :func:`simulate`'s checks, so each
    member's rate is byte-identical to the reference fill of its own
    component."""
    cluster_name, launches, faults, tie_order = scenario
    grouped = run_launches(cluster_name, launches, faults,
                           tie_order=tie_order,
                           network_class=GroupCountingNetwork,
                           observe=True, check=True)
    reference = run_launches(cluster_name, launches, faults,
                             tie_order=tie_order,
                             network_class=PerFlowNetwork, observe=True)
    exact = assert_groups_match(grouped, reference)
    event("groups of 2+ members: "
          + ("formed" if grouped.network.grouped else "none"))
    event("groups split: " + ("yes" if grouped.network.parts else "no"))
    event("instants and byte totals: "
          + ("bit-identical" if exact else "within 1e-12"))


#: One ring over the single node's GPUs, and a fault that halves the
#: NVLink under one member (not the first) while the ring streams.
PLANTED_RING = ("single", [LaunchSpec(0.0, TrafficProfile.BURSTY, None, tuple(
    (f"node0/gpu{index}", f"node0/gpu{(index + 1) % 4}", 4e9, 1.0, None)
    for index in range(4)))])


def planted_runs():
    """The grouped and the per-flow run of :data:`PLANTED_RING`."""
    cluster_name, launches = PLANTED_RING
    cluster = CLUSTERS[cluster_name]()
    link = cluster.topology.route("node0/gpu1", "node0/gpu2").links[0]
    faults = [FaultEvent(target=link.name, kind=FaultKind.LINK_DEGRADE,
                         start=0.01, duration=0.02, magnitude=0.5)]
    return [run_launches(cluster_name, launches, faults,
                         tie_order=TieOrder(), network_class=network_class,
                         observe=True)
            for network_class in (GroupCountingNetwork, PerFlowNetwork)]


def test_planted_ring_forms_and_splits_a_group():
    """The plants' scenario forms one group of four, which splits when
    the fault lands, and passes the harness unplanted."""
    grouped, reference = planted_runs()
    assert grouped.network.grouped == 1 and grouped.network.parts
    assert_groups_match(grouped, reference)


def test_plant_group_that_does_not_split_fails_the_harness(monkeypatch):
    """A group that keeps one rate and capacity for all its members when
    one member's link degrades must fail the harness."""
    def unsplit_fill(units):
        rates, _ = fill(units)
        return rates, None

    def unsplit_capacity(group):
        group.weight, group.cap = group.members()[0].capacity()
        return False

    fill = flows_module._fill
    monkeypatch.setattr(flows_module, "_fill", unsplit_fill)
    monkeypatch.setattr(FlowGroup, "refresh_capacity", unsplit_capacity)
    grouped, reference = planted_runs()
    assert grouped.network.grouped == 1 and not grouped.network.parts
    with pytest.raises(AssertionError):
        assert_groups_match(grouped, reference)


def test_plant_group_row_naming_only_its_first_member_fails_the_harness(
        monkeypatch):
    """A group row that charges only its first member's links must fail
    the harness."""
    monkeypatch.setattr(
        RouteBundle, "record",
        lambda bundle, start, end, num_bytes: bundle.routes[0].record(
            start, end, num_bytes))
    grouped, reference = planted_runs()
    with pytest.raises(AssertionError):
        assert_groups_match(grouped, reference)


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
