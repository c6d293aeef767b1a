"""Fluid-flow transfer network with weighted max-min fair sharing.

Transfers are *flows*: a byte count streaming over a
:class:`~repro.hardware.topology.Route`.  Concurrent flows share link
capacity by weighted max-min fairness (the standard fluid approximation
for congestion-controlled fabrics such as NVLink, PCIe, and RoCE with
PFC).  A *pool* is one direction of one link; flows that share a pool,
directly or through a chain of other flows, form a *component*.  When a
flow starts or finishes, rates are recomputed only for the component the
change touches: max-min sharing splits exactly over components, so every
other flow keeps its rate.  Identical components recur (a ring step
launches the same routes at the same caps every iteration), so
component fills are memoized on the network.  An external capacity
change re-rates every flow (:meth:`FlowNetwork.rebalance`).
:func:`reference_rates` keeps the global allocation over all flows at
once as the reference the component-local allocator is tested against.

Transfers started together (a collective's ring flows, the stripes of
one NVMe read) are one :meth:`FlowNetwork.launch` with one
:class:`Launch` event, fired when the last of them finishes.  The
entries of a launch that move in lockstep (equal bytes, weight
multiplier, cap, latency, SerDes derate and bottleneck) form one
:class:`FlowGroup`, which is activated, water-filled, settled and
finished as one unit while each member keeps its own id and route.
Rates still come from one fill per member-level component, and a group
whose members would get different rates or capacities splits into
classes of equal members, so every member's rate is the one it would
get as a flow of its own, bit for bit.

SerDes contention (Section III-C4 of the paper) enters as a *consumption
weight*: a flow whose route is derated to fraction ``d`` consumes ``1/d``
units of pool capacity per delivered byte, so a contended path attains
``d x`` the link bandwidth whether one flow or many use it — matching the
stress-test observation that four kernels together reach only ~47-52 % of
theoretical.

Settlement is lazy: each flow accounts its bytes up to ``Flow.since``
and is settled only when its rate is about to change or it finishes, so
one row of the fabric's :class:`~repro.hardware.link.IntervalLog`, read
by each traversed link's ledger, covers one constant-rate interval of
one flow or flow group.  The ledgers are where the paper's Table IV
statistics and Figs. 9/10/12 time-series come from.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..errors import SimulationError
from ..hardware.serdes import TrafficProfile
from ..hardware.topology import PoolKey, Route, RouteBundle
from ..units import Bytes, BytesPerSecond, Seconds
from .engine import BatchHandler, Engine, SimEvent


#: one transfer of a launch: ``(route, bytes, weight_multiplier, cap)``
Transfer = Tuple[Route, Bytes, float, Optional[BytesPerSecond]]


class Launch(SimEvent):
    """The completion of one :meth:`FlowNetwork.launch`: fires when its
    last transfer has finished and its hold, if any, has elapsed."""

    def __init__(self, engine: Engine, size: int, label: str,
                 holding: bool) -> None:
        super().__init__(engine)
        self.size = size
        self.label = label
        self.holding = holding
        #: unfinished transfers, plus one until the hold elapses
        self.pending = size + holding

    def release(self, count: int = 1) -> None:
        """Count ``count`` transfers as finished."""
        self.pending -= count
        if not self.pending:
            self.succeed(None)

    def end_hold(self) -> None:
        self.holding = False
        self.release()


class Flow:
    """One in-flight transfer, and the allocator's unit for it."""

    __slots__ = ("id", "route", "label", "profile", "bytes_total",
                 "bytes_remaining", "_user_cap", "_derate",
                 "weight_multiplier", "weight", "cap", "rate", "since",
                 "finish_at", "launch", "started_at", "size")

    def __init__(self, route: Route, num_bytes: Bytes, *, flow_id: int,
                 profile: TrafficProfile, cap: Optional[BytesPerSecond],
                 label: str = "", weight_multiplier: float = 1.0,
                 launch: Optional[Launch] = None) -> None:
        if weight_multiplier < 1.0:
            raise SimulationError("weight_multiplier must be >= 1")
        self.id = flow_id
        self.route = route
        self.label = label
        self.profile = profile
        self.bytes_total = float(num_bytes)
        self.bytes_remaining = float(num_bytes)
        self._user_cap = cap
        self._derate = route.derate(profile)
        self.weight_multiplier = weight_multiplier
        #: set by :meth:`refresh_capacity` when the flow activates and on
        #: every :meth:`FlowNetwork.rebalance`
        self.weight = 1.0
        self.cap = float("inf")
        self.rate = 0.0
        #: instant up to which ``bytes_remaining`` is accounted
        self.since = 0.0
        #: projected finish at ``rate`` (inf while the flow is stalled)
        self.finish_at = float("inf")
        self.launch = launch
        self.started_at: Optional[float] = None
        #: transfers the unit stands for (a :class:`FlowGroup` has several)
        self.size = 1

    #: residues below this are floating-point dust, not real payload
    EPSILON_BYTES = 1e-3

    def members(self) -> Sequence["Flow"]:
        """The transfers the unit stands for: the flow itself."""
        return (self,)

    @property
    def done(self) -> bool:
        return self.bytes_remaining <= self.EPSILON_BYTES

    def capacity(self) -> Tuple[float, BytesPerSecond]:
        """``(weight, cap)`` at the route's current link capacities.

        * ``weight`` — extra pool capacity consumed per delivered byte
          (>= 1).  ``weight_multiplier`` models protocol inefficiency
          (e.g. NCCL's proxy path over RoCE): the aggregate attainable
          rate over a pool scales down by the multiplier no matter how
          many flows pile on.
        * ``cap`` — hard per-flow rate ceiling: the derated route
          bandwidth, further clamped by any caller-supplied cap (e.g.
          NVMe media bandwidth).  A fully-down link on the route pins the
          cap to zero; the flow stalls until the link is restored.

        The route's SerDes derate is static; only the bottleneck link
        capacity changes, with faults (:meth:`Route.bottleneck`).
        """
        links = self.route.links
        if not links:
            return 1.0, (
                float("inf") if self._user_cap is None else self._user_cap
            )
        bottleneck = self.route.bottleneck()
        derate = bottleneck * self._derate
        if derate <= 0.0:
            return self.weight_multiplier, 0.0
        weight = bottleneck / derate * self.weight_multiplier
        cap = derate if self._user_cap is None else min(derate, self._user_cap)
        return weight, cap

    def refresh_capacity(self) -> bool:
        """Re-derive ``weight`` and ``cap`` (see :meth:`capacity`).

        Called when the flow activates and for every flow on
        :meth:`FlowNetwork.rebalance`: link capacities are time-varying
        under fault injection, and every change is followed by a
        rebalance.  Returns whether the unit must split, which only a
        :class:`FlowGroup` can.
        """
        self.weight, self.cap = self.capacity()
        return False


class FlowGroup(Flow):
    """Transfers of one launch that move in lockstep, as one unit.

    The members have equal bytes, weight multiplier, cap, latency, SerDes
    derate and bottleneck, so they activate together and, as long as
    every fill gives them one rate, finish together.  The group is what
    the allocator handles: one activation, one entry in each pool's
    member list, one settlement and one interval-log row per
    constant-rate interval (its ``route`` is the members'
    :class:`~repro.hardware.topology.RouteBundle`).  ``bytes_total``,
    ``bytes_remaining`` and ``rate`` are each member's.  Members keep
    their own ``routes`` and ids: ``base``, the id of the launch's first
    flow, plus their ``offsets``, their positions among the launch's
    flows.  :meth:`members` shows them to instruments as :class:`Flow`
    views.
    """

    __slots__ = ("base", "routes", "offsets", "_views")

    def __init__(self, bundle: RouteBundle, base: int,
                 offsets: Tuple[int, ...], num_bytes: Bytes, *,
                 profile: TrafficProfile, cap: Optional[BytesPerSecond],
                 label: str, weight_multiplier: float,
                 launch: Optional[Launch]) -> None:
        # A member route gives the derate: the group's key holds it.
        super().__init__(bundle.routes[0], num_bytes,
                         flow_id=base + offsets[0], profile=profile, cap=cap,
                         label=label, weight_multiplier=weight_multiplier,
                         launch=launch)
        self.route = bundle  # type: ignore[assignment]
        self.routes = bundle.routes
        self.base = base
        self.offsets = offsets
        self.size = len(offsets)
        self._views: Optional[List[Flow]] = None

    def members(self) -> List[Flow]:
        """One :class:`Flow` per member, in member order, holding the
        group's state as of this call (built once, refreshed per call)."""
        views = self._views
        if views is None:
            views = self._views = [
                Flow(route, self.bytes_total, flow_id=self.base + offset,
                     profile=self.profile, cap=self._user_cap,
                     label=self.label,
                     weight_multiplier=self.weight_multiplier,
                     launch=self.launch)
                for offset, route in zip(self.offsets, self.routes)
            ]
        for view in views:
            view.bytes_remaining = self.bytes_remaining
            view.weight, view.cap, view.rate = self.weight, self.cap, self.rate
            view.since, view.finish_at = self.since, self.finish_at
            view.started_at = self.started_at
        return views

    def refresh_capacity(self) -> bool:
        """As :meth:`Flow.refresh_capacity`, or ``True``, leaving weight
        and cap as they were, once a capacity change gives the members
        different ones: the group must split by them."""
        if self.route.bottleneck() is not None:
            self.weight, self.cap = self.capacity()
            return False
        first, *others = [member.capacity() for member in self.members()]
        if any(other != first for other in others):
            return True
        self.weight, self.cap = first
        return False

    def part(self, positions: Sequence[int],
             bundle: RouteBundle) -> "FlowGroup":
        """The members at ``positions`` as a group of their own, over
        ``bundle``, in this group's state."""
        part = FlowGroup(bundle, self.base,
                         tuple([self.offsets[at] for at in positions]),
                         self.bytes_total, profile=self.profile,
                         cap=self._user_cap, label=self.label,
                         weight_multiplier=self.weight_multiplier,
                         launch=self.launch)
        part.bytes_remaining = self.bytes_remaining
        part.weight, part.cap, part.rate = self.weight, self.cap, self.rate
        part.since, part.finish_at = self.since, self.finish_at
        part.started_at = self.started_at
        if self._views is not None:
            part._views = [self._views[at] for at in positions]
        return part


def _no_progress(flows: Iterable[Flow], why: str) -> SimulationError:
    """The error for a water-filling that cannot finish ``flows``."""
    names = ", ".join(f"#{flow.id} {flow.label or 'unlabelled'}"
                      for flow in sorted(flows, key=_flow_id))
    return SimulationError(f"rate allocation stuck ({why}) for flows: {names}")


def reference_rates(flows: Iterable[Flow]) -> Dict[int, float]:
    """Weighted max-min fair rates of ``flows`` by global water-filling.

    Every flow takes part in one allocation, pool membership is rebuilt
    from the routes and each flow's weight and cap are re-derived from
    the current link capacities.  Each round raises every unfrozen flow
    by the largest common increment no cap or pool forbids, then freezes
    the flows whose cap it reached and the members of the pools it
    filled.  Pure — the flows are not touched — and called only by tests,
    as the reference for :class:`FlowNetwork`'s component-local rates.
    Returns rates keyed by flow id.
    """
    ordered = sorted(flows, key=_flow_id)
    weights: Dict[Flow, float] = {}
    caps: Dict[Flow, float] = {}
    pools: Dict[PoolKey, float] = {}
    pool_members: Dict[PoolKey, List[Flow]] = {}
    for flow in ordered:
        weights[flow], caps[flow] = flow.capacity()
        for key in flow.route.pool_keys:
            if key not in pools:
                pools[key] = key[0].capacity_per_direction
            pool_members.setdefault(key, []).append(flow)
    rates = {flow: 0.0 for flow in ordered}
    unfrozen = set(ordered)
    guard = len(ordered) + len(pools) + 4
    while unfrozen:
        if guard <= 0:
            raise _no_progress(unfrozen, "round guard exhausted")
        guard -= 1
        delta = min(caps[flow] - rates[flow] for flow in unfrozen)
        limiting_pools: List[PoolKey] = []
        for key, remaining in pools.items():
            members = [f for f in pool_members[key] if f in unfrozen]
            if not members:
                continue
            share = remaining / sum(weights[f] for f in members)
            if share < delta - 1e-15:
                delta = share
                limiting_pools = [key]
            elif abs(share - delta) <= 1e-15:
                limiting_pools.append(key)
        if delta == float("inf"):
            raise _no_progress(unfrozen, "no cap or pool bounds them")
        delta = max(delta, 0.0)
        # Residuals are compared before the increment: rate + residual
        # can round to one ulp below the cap.
        newly_frozen = {
            flow for flow in unfrozen if caps[flow] - rates[flow] <= delta
        }
        for flow in unfrozen:
            rates[flow] += delta
        for key in pools:
            members = [f for f in pool_members[key] if f in unfrozen]
            pools[key] -= delta * sum(weights[f] for f in members)
        for key in limiting_pools:
            newly_frozen.update(
                f for f in pool_members[key] if f in unfrozen
            )
        if not newly_frozen:
            raise _no_progress(unfrozen, "a round froze no flow")
        unfrozen -= newly_frozen
    return {flow.id: rate for flow, rate in rates.items()}


def _water_fill(flows: Sequence[Flow]) -> List[float]:
    """Weighted max-min rates of one component, ``flows`` in id order.

    The same rounds and the same float operations as
    :func:`reference_rates` over ``flows`` alone, on index lists: pool
    weight sums are re-summed only when a member freezes, and pools
    whose members are all frozen drop out of the scan.
    """
    count = len(flows)
    caps = [flow.cap for flow in flows]
    weights = [flow.weight for flow in flows]
    pool_of: Dict[PoolKey, int] = {}
    members: List[List[int]] = []
    remaining: List[float] = []
    flow_pools: List[List[int]] = []
    for index in range(count):
        mine = []
        for key in flows[index].route.pool_keys:
            pool = pool_of.get(key)
            if pool is None:
                pool = pool_of[key] = len(members)
                members.append([index])
                remaining.append(key[0].capacity_per_direction)
            else:
                members[pool].append(index)
            mine.append(pool)
        flow_pools.append(mine)
    # weight sum of each pool's unfrozen members
    sums = [sum([weights[i] for i in pool]) for pool in members]
    drained = [False] * len(members)
    rates = [0.0] * count
    frozen = [False] * count
    rising = list(range(count))
    live = list(range(len(members)))
    guard = count + len(members) + 4
    while rising:
        if guard <= 0:
            raise _no_progress([flows[i] for i in rising],
                               "round guard exhausted")
        guard -= 1
        delta = min([caps[i] - rates[i] for i in rising])
        limiting: List[int] = []
        for pool in live:
            share = remaining[pool] / sums[pool]
            if share < delta - 1e-15:
                delta = share
                limiting = [pool]
            elif abs(share - delta) <= 1e-15:
                limiting.append(pool)
        if delta == float("inf"):
            raise _no_progress([flows[i] for i in rising],
                               "no cap or pool bounds them")
        delta = max(delta, 0.0)
        newly = [i for i in rising if caps[i] - rates[i] <= delta]
        for i in rising:
            rates[i] += delta
        for pool in live:
            remaining[pool] -= delta * sums[pool]
        for pool in limiting:
            newly.extend(members[pool])
        changed: Dict[int, None] = {}
        for i in newly:
            if not frozen[i]:
                frozen[i] = True
                for pool in flow_pools[i]:
                    changed[pool] = None
        still_rising = [i for i in rising if not frozen[i]]
        if len(still_rising) == len(rising):
            raise _no_progress([flows[i] for i in rising],
                               "a round froze no flow")
        rising = still_rising
        if not rising:
            break
        for pool in changed:
            open_members = [i for i in members[pool] if not frozen[i]]
            if open_members:
                sums[pool] = sum([weights[i] for i in open_members])
            else:
                drained[pool] = True
        live = [pool for pool in live if not drained[pool]]
    return rates


#: the classes of equal-rate members of each group of a component whose
#: members got different rates: ``(unit index, [(rate, member
#: positions), ...])``
Splits = List[Tuple[int, List[Tuple[float, Tuple[int, ...]]]]]
#: a component's fill: each unit's rate, and its splits if any
Fill = Tuple[List[float], Optional[Splits]]


def _fill(units: Sequence[Flow]) -> Fill:
    """Rates of one component's ``units`` (in id order), filled as one
    flow per transfer.

    The members are listed in id order and split into the components
    their own pools link (a group's members need not share a pool), and
    :func:`_water_fill` fills each on its own, as it fills the flows of
    one component when every transfer is a flow.  A group whose members
    get different rates is reported with its classes of equal-rate
    members, in order of their first member.
    """
    members = sorted((member.id, index, member)
                     for index, unit in enumerate(units)
                     for member in unit.members())
    flows = [member for _, _, member in members]
    by_pool: Dict[PoolKey, List[int]] = {}
    for at, flow in enumerate(flows):
        for key in flow.route.pool_keys:
            by_pool.setdefault(key, []).append(at)
    rates = [0.0] * len(flows)
    placed = [False] * len(flows)
    for seed in range(len(flows)):
        if placed[seed]:
            continue
        placed[seed] = True
        component = [seed]
        for at in component:  # grows while it is walked
            for key in flows[at].route.pool_keys:
                for other in by_pool[key]:
                    if not placed[other]:
                        placed[other] = True
                        component.append(other)
        component.sort()
        filled = _water_fill([flows[at] for at in component])
        for at, rate in zip(component, filled):
            rates[at] = rate
    # a unit's members are in id order, so this lists them in member order
    member_rates: List[List[float]] = [[] for _ in units]
    for (_, index, _), rate in zip(members, rates):
        member_rates[index].append(rate)
    unit_rates = [own[0] for own in member_rates]
    splits: Splits = []
    for index, own in enumerate(member_rates):
        if any(rate != own[0] for rate in own):
            classes: Dict[float, List[int]] = {}
            for position, rate in enumerate(own):
                classes.setdefault(rate, []).append(position)
            splits.append((index, [(rate, tuple(positions))
                                   for rate, positions in classes.items()]))
    return unit_rates, splits or None


#: how one group of a launch starts: ``(bytes, weight_multiplier, cap,
#: bundle, member offsets)``
_Unit = Tuple[Bytes, float, Optional[BytesPerSecond], RouteBundle,
              Tuple[int, ...]]


class _Layout(NamedTuple):
    """How a launch's transfers start (see :meth:`FlowNetwork._layout`)."""

    profile: TrafficProfile
    #: flows started, members counted
    count: int
    #: ``(delay, unit)`` per scheduled event, ``unit`` ``None`` for the
    #: release of a zero-byte or loopback entry
    events: Tuple[Tuple[float, Optional[_Unit]], ...]


class FlowNetwork:
    """Shares link capacity among active flows and completes them in order."""

    #: component fills remembered between rebalances; a full memo is
    #: emptied, which bounds it on runs whose components never repeat
    _FILL_MEMO_LIMIT = 4096
    #: route bundles kept per run, and launch layouts kept between
    #: rebalances; a full cache is emptied
    _BUNDLE_LIMIT = 4096
    _LAYOUT_LIMIT = 4096

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        #: active units (flows and flow groups) in id order; every float
        #: fold over them (ledger records, byte totals) follows this
        #: order, so repeated runs of one configuration agree to the last
        #: bit
        self._flows: List[Flow] = []
        #: active units loading each loaded pool, in id order
        self._members: Dict[PoolKey, List[Flow]] = {}
        self._flow_ids = itertools.count()
        #: fills of each component since the last :meth:`rebalance`,
        #: keyed by the units' ``(route, weight, cap)`` triples in id
        #: order, then, if there are several, whether each after the
        #: first belongs to the previous one's launch
        self._fills: Dict[Tuple[Any, ...], Fill] = {}
        #: the bundle of each group's members, by their routes and their
        #: positions among their launch's flows
        self._bundles: Dict[Tuple[Tuple[Route, ...], Tuple[int, ...]],
                            RouteBundle] = {}
        #: how each launch's transfers start, by transfers
        self._layouts: Dict[Tuple[Transfer, ...], _Layout] = {}
        #: due time of the one live completion check (inf: none), and
        #: the tag that tells it from the checks it superseded
        self._check_at = float("inf")
        self._generation = 0
        self.completed_flows = 0
        self.total_bytes_moved = 0.0
        #: instruments told of every transfer's finish
        #: (``flow_closed(flow, now)``), in order; set by
        #: :class:`repro.sim.probes.RunProbes`.  Their hooks only do
        #: bookkeeping — they never schedule events or touch engine
        #: state — so attaching one cannot perturb the simulated schedule.
        self.observers: Tuple[Any, ...] = ()
        #: Batchable activation: a collective launching N units at one
        #: instant folds into N adds + one reallocate, replacing N full
        #: water-filling rounds (see
        #: :class:`~repro.sim.engine.BatchHandler`).
        self._activate = BatchHandler(self._activate_one,
                                      self._activate_batch)

    # -- public API -------------------------------------------------------------
    def launch(self, transfers: Sequence[Transfer], *,
               profile: TrafficProfile = TrafficProfile.BURSTY,
               label: str = "", hold: Optional[Seconds] = None) -> Launch:
        """Start ``transfers``; the event fires when the last has finished
        (a zero-byte or loopback one after its latency) and ``hold``
        seconds have passed.

        Entries with equal bytes, weight multiplier, cap, latency, derate
        and bottleneck start as one :class:`FlowGroup`, whose one
        activation is scheduled where its first member's would be.  The
        releases of zero-byte and loopback entries keep their places, and
        the hold is scheduled last.
        """
        engine = self.engine
        now = engine.now
        launch = Launch(engine, len(transfers), label, hold is not None)
        if len(transfers) > 1:
            self._start_groups(launch, transfers, profile)
        else:  # at most one transfer: a flow of its own
            for route, num_bytes, weight_multiplier, cap in transfers:
                if num_bytes <= 0 or route.is_loopback:
                    delay = 0.0 if route.is_loopback else route.latency()
                    engine.schedule_at(now + delay, launch.release)
                    continue
                flow = Flow(route, num_bytes, flow_id=next(self._flow_ids),
                            profile=profile, cap=cap, label=label,
                            weight_multiplier=weight_multiplier,
                            launch=launch)
                engine.schedule_at(now + route.latency(), self._activate,
                                   flow)
        if hold is not None:
            engine.schedule_at(now + hold, launch.end_hold)
        elif not transfers:
            engine.schedule_at(now, launch.succeed, None)
        return launch

    def transfer(self, route: Route, num_bytes: Bytes, *,
                 profile: TrafficProfile = TrafficProfile.BURSTY,
                 cap: Optional[BytesPerSecond] = None,
                 label: str = "",
                 weight_multiplier: float = 1.0) -> Launch:
        """Start one transfer: the one-entry :meth:`launch`."""
        return self.launch([(route, num_bytes, weight_multiplier, cap)],
                           profile=profile, label=label)

    @property
    def active_count(self) -> int:
        """Active transfers, each member of a flow group counted."""
        return sum(flow.size for flow in self._flows)

    def active_flows(self) -> List[Flow]:
        """The active transfers in id order; a flow group's members are
        :class:`Flow` views of its state as of this call."""
        flows = [member for flow in self._flows for member in flow.members()]
        flows.sort(key=_flow_id)
        return flows

    def settle(self) -> None:
        """Account every active flow's bytes up to the current time.

        A start or finish settles only the flows whose rate it may
        change, so between changes a flow's ``bytes_remaining`` and its
        ledgers lag behind the clock.  Open-ended measurements (the
        stress tests run flows that outlive the measurement window) call
        this before reading the ledgers, and the fault injector calls it
        before a capacity change, so every interval is recorded with the
        degradation stamp that held over all of it.
        """
        self._settle(self._flows)

    def rebalance(self) -> None:
        """Settle and re-rate every active flow after a capacity change.

        Rates are otherwise recomputed only for the flows a start or
        finish touches, so **any** change to a link's capacity must be
        followed by a call to this method.  The fault injector calls
        :meth:`settle` *before* degrading or restoring link capacity (so
        in-flight intervals are accounted at the rates that actually
        applied) and this afterwards, so every active flow's rate
        reflects the new capacities from this instant.  A flow group
        whose members the change gives different capacities splits by
        them.  Pool capacities are the one input of a component fill its
        memo key leaves out, so this also empties the memo, and launch
        layouts (:meth:`_layout`) read bottlenecks, so it empties them.
        """
        self._settle(self._flows)
        self._fills.clear()
        self._layouts.clear()
        for flow in list(self._flows):
            if flow.refresh_capacity():  # only a group asks to split
                assert isinstance(flow, FlowGroup)
                self._replace(flow, self._split_by_capacity(flow))
        self._reallocate(dict.fromkeys(self._members))

    # -- internals -----------------------------------------------------------------
    def _start_groups(self, launch: Launch, transfers: Sequence[Transfer],
                      profile: TrafficProfile) -> None:
        """Start ``transfers`` with the entries that move in lockstep as
        one :class:`FlowGroup` each (see :meth:`launch`).  Members are
        numbered in entry order, as flows of their own would be."""
        engine = self.engine
        now = engine.now
        layout = self._layout(transfers, profile)
        base = next(self._flow_ids)
        self._flow_ids = itertools.count(base + layout.count)
        for delay, unit in layout.events:
            if unit is None:
                engine.schedule_at(now + delay, launch.release)
                continue
            num_bytes, weight_multiplier, cap, bundle, offsets = unit
            engine.schedule_at(now + delay, self._activate, FlowGroup(
                bundle, base, offsets, num_bytes, profile=profile, cap=cap,
                label=launch.label, weight_multiplier=weight_multiplier,
                launch=launch))

    def _layout(self, transfers: Sequence[Transfer],
                profile: TrafficProfile) -> _Layout:
        """How ``transfers`` start: which entries form a group, and the
        order of the scheduled events.

        It depends on the entries, the profile and link capacities only,
        and capacities change only before a :meth:`rebalance`, which
        empties the cache; so a recurring launch (a collective's plan)
        is laid out once between capacity changes.
        """
        key = tuple(transfers)
        layout = self._layouts.get(key)
        if layout is not None and layout.profile is profile:
            return layout
        groups: Dict[Tuple[Any, ...], List[Tuple[int, Route]]] = {}
        #: ``(delay, group key)``, or ``(delay, None)`` for a release, in
        #: entry order of each group's first member
        order: List[Tuple[float, Optional[Tuple[Any, ...]]]] = []
        count = 0
        for route, num_bytes, weight_multiplier, cap in transfers:
            if num_bytes <= 0 or route.is_loopback:
                order.append((0.0 if route.is_loopback else route.latency(),
                              None))
                continue
            group = self._lockstep_key(route, num_bytes, weight_multiplier,
                                       cap, profile)
            members = groups.get(group)
            if members is None:
                members = groups[group] = []
                order.append((route.latency(), group))
            members.append((count, route))
            count += 1
        events: List[Tuple[float, Optional[_Unit]]] = []
        for delay, group in order:
            if group is None:
                events.append((delay, None))
                continue
            members = groups[group]
            offsets = tuple([offset for offset, _ in members])
            bundle = self._bundle(tuple([route for _, route in members]),
                                  offsets)
            events.append((delay, (group[0], group[1], group[2], bundle,
                                   offsets)))
        if len(self._layouts) >= self._LAYOUT_LIMIT:
            self._layouts.clear()
        layout = self._layouts[key] = _Layout(profile, count, tuple(events))
        return layout

    @staticmethod
    def _lockstep_key(route: Route, num_bytes: Bytes,
                      weight_multiplier: float, cap: Optional[BytesPerSecond],
                      profile: TrafficProfile) -> Tuple[Any, ...]:
        """What the entries of one group share: bytes, weight multiplier
        and cap first (a group's flow reads them from here), then
        latency, derate and bottleneck."""
        return (num_bytes, weight_multiplier, cap, route.latency(),
                route.derate(profile), route.bottleneck())

    def _bundle(self, routes: Tuple[Route, ...],
                offsets: Tuple[int, ...]) -> RouteBundle:
        """The bundle of a group's members, built once per run.  Keyed by
        the members' positions in their launch as well as their routes,
        so a fill-memo key that names bundles also fixes how the members
        of one launch's groups interleave by id."""
        members = (routes, offsets)
        bundle = self._bundles.get(members)
        if bundle is None:
            if len(self._bundles) >= self._BUNDLE_LIMIT:
                self._bundles.clear()
            bundle = self._bundles[members] = RouteBundle(routes)
        return bundle

    def _part(self, group: FlowGroup, positions: Sequence[int]) -> FlowGroup:
        """The members of ``group`` at ``positions`` as a group."""
        return group.part(positions, self._bundle(
            tuple([group.routes[at] for at in positions]),
            tuple([group.offsets[at] for at in positions])))

    def _split_by_capacity(self, group: FlowGroup) -> List[FlowGroup]:
        """``group`` as classes of members with equal ``(weight, cap)``,
        each with its capacity set."""
        classes: Dict[Tuple[float, float], List[int]] = {}
        for position, member in enumerate(group.members()):
            classes.setdefault(member.capacity(), []).append(position)
        parts = []
        for capacity, positions in classes.items():
            part = self._part(group, positions)
            part.weight, part.cap = capacity
            parts.append(part)
        return parts

    def _replace(self, flow: Flow, parts: Sequence[Flow]) -> None:
        """Put ``parts`` in the place of the active ``flow``; the caller
        rates them."""
        self._flows.remove(flow)
        for key in flow.route.pool_keys:
            self._members[key].remove(flow)
        touched: Dict[PoolKey, None] = {}
        for part in parts:
            self._insert(part, touched)

    def _add(self, flow: Flow, touched: Dict[PoolKey, None]) -> None:
        """Activate ``flow``, split first if it is a group whose members'
        capacities differ.  A group's one activation stands for one per
        member, so it counts at that multiplicity."""
        flow.started_at = flow.since = self.engine.now
        if flow.size > 1:
            self.engine.fold_occurrences(flow.size - 1)
        if flow.refresh_capacity():  # only a group asks to split
            assert isinstance(flow, FlowGroup)
            for part in self._split_by_capacity(flow):
                self._insert(part, touched)
        else:
            self._insert(flow, touched)

    def _insert(self, flow: Flow, touched: Dict[PoolKey, None]) -> None:
        """Place ``flow`` in the id-ordered active units and in each of
        its pools' member lists, and mark those pools ``touched``."""
        flows = self._flows
        if flows and flows[-1].id > flow.id:
            _insert_by_id(flows, flow)
        else:  # the common case: units activate roughly in id order
            flows.append(flow)
        for key in flow.route.pool_keys:
            pool = self._members.setdefault(key, [])
            if pool and pool[-1].id > flow.id:
                _insert_by_id(pool, flow)
            else:
                pool.append(flow)
            touched[key] = None

    def _activate_one(self, flow: Flow) -> None:
        self.engine.note_touch("flows:allocator")
        touched: Dict[PoolKey, None] = {}
        self._add(flow, touched)
        self._reallocate(touched)

    def _activate_batch(self, batch: List[Tuple[Flow]]) -> None:
        """Activate a same-timestamp run of units with one allocation.

        Equivalent to :meth:`_activate_one` per unit in order: between
        same-timestamp activations no simulated time elapses, so no flow
        finishes and settling a component again accounts nothing, and
        the intermediate rate allocations never apply.  Only the final
        allocation of each touched component has observable effect —
        which is exactly what this computes once.
        """
        self.engine.note_touch("flows:allocator")
        touched: Dict[PoolKey, None] = {}
        for (flow,) in batch:
            self._add(flow, touched)
        self._reallocate(touched)

    def _settle(self, flows: Iterable[Flow]) -> None:
        """Account each of ``flows`` up to now at its current rate: one
        interval-log row for the interval since it was settled."""
        now = self.engine.now
        sanitizer = self.engine.sanitizer
        for flow in flows:
            start = flow.since
            elapsed = now - start
            if elapsed <= 0:
                continue
            flow.since = now
            remaining = flow.bytes_remaining
            moved = flow.rate * elapsed
            if remaining < moved:
                moved = remaining
            if moved > 0:
                if sanitizer is not None:
                    for link in flow.route.links:
                        self.engine.note_touch(f"ledger:{link.name}")
                # Absorb floating-point dust: crediting rate x elapsed
                # can undershoot the true remainder by ~1 ulp, which
                # would otherwise strand a nanobyte whose completion
                # time rounds to zero clock advance.
                if remaining - moved <= Flow.EPSILON_BYTES:
                    moved = remaining
                flow.bytes_remaining = remaining - moved
                self.total_bytes_moved += moved * flow.size
                flow.route.record(start, now, moved)

    def _reallocate(self, touched: Dict[PoolKey, None]) -> None:
        """Retire finished flows, re-rate the components of the
        ``touched`` pools (plus those the finished flows leave), then
        keep the completion check at the earliest projected finish."""
        self.engine.note_touch("flows:allocator")
        now = self.engine.now
        # The projection of what settling would leave: a flow finishes
        # in the same callback as if every flow were settled now.
        finished = [
            flow for flow in self._flows
            if flow.bytes_remaining - flow.rate * (now - flow.since)
            <= Flow.EPSILON_BYTES
        ]
        if finished:
            self._settle(finished)
            self._flows = [flow for flow in self._flows if not flow.done]
            for flow in finished:
                for key in flow.route.pool_keys:
                    members = self._members[key]
                    members.remove(flow)
                    if not members:
                        del self._members[key]
                    touched[key] = None
            if self.observers:
                self._close_observed(finished, now)
            else:
                for flow in finished:
                    self.completed_flows += flow.size
                    assert flow.launch is not None
                    flow.launch.release(flow.size)
        if self._flows:
            self._rerate(touched)
        self._schedule_next_completion()

    def _close_observed(self, finished: List[Flow], now: Seconds) -> None:
        """Count the ``finished`` transfers and release their launches
        one transfer at a time, in flow-id order, telling the observers
        of each as it goes."""
        for member in sorted((member for flow in finished
                              for member in flow.members()), key=_flow_id):
            self.completed_flows += 1
            for observer in self.observers:
                observer.flow_closed(member, now)
            assert member.launch is not None
            member.launch.release()

    def _rerate(self, touched: Dict[PoolKey, None]) -> None:
        """Settle and water-fill each component that loads a ``touched``
        pool.  Every flow of the component is settled, whether or not
        its rate changes, so which intervals the ledgers hold does not
        depend on the order of same-instant changes.  A group whose
        members the fill gives different rates splits into its classes
        of equal rates once the walk is done."""
        now = self.engine.now
        fills = self._fills
        placed: Set[Flow] = set()
        splits: List[Tuple[List[Flow], Splits]] = []
        for seed in touched:
            for first in self._members.get(seed, ()):
                if first in placed:
                    continue
                placed.add(first)
                component = [first]
                for flow in component:  # grows while it is walked
                    for key in flow.route.pool_keys:
                        for other in self._members[key]:
                            if other not in placed:
                                placed.add(other)
                                component.append(other)
                component.sort(key=_flow_id)
                self._settle(component)
                key: Tuple[Any, ...] = tuple([
                    (flow.route, flow.weight, flow.cap) for flow in component
                ])
                if len(component) > 1:
                    # which neighbours share a launch fixes how their
                    # members interleave by id
                    launches = [flow.launch for flow in component]
                    key += (tuple(map(operator.is_, launches,
                                      launches[1:])),)
                fill = fills.get(key)
                if fill is None:
                    if len(fills) >= self._FILL_MEMO_LIMIT:
                        fills.clear()
                    fill = fills[key] = _fill(component)
                rates, classes = fill
                for flow, rate in zip(component, rates):
                    flow.rate = rate
                    flow.finish_at = (now + flow.bytes_remaining / rate
                                      if rate > 0 else float("inf"))
                if classes is not None:
                    splits.append((component, classes))
        for component, classes in splits:
            self._split_by_rate(component, classes)

    def _split_by_rate(self, component: List[Flow], classes: Splits) -> None:
        """Replace each group of the re-rated ``component`` that the fill
        split with its classes of equal-rate members, rated."""
        now = self.engine.now
        for index, parts in classes:
            group = component[index]
            assert isinstance(group, FlowGroup)
            pieces = []
            for rate, positions in parts:
                piece = self._part(group, positions)
                piece.rate = rate
                piece.finish_at = (now + piece.bytes_remaining / rate
                                   if rate > 0 else float("inf"))
                pieces.append(piece)
            self._replace(group, pieces)

    def _schedule_next_completion(self) -> None:
        """Keep one live completion check, due at the earliest projected
        finish; a new one is scheduled only when that instant moves."""
        due = float("inf")
        for flow in self._flows:
            if flow.finish_at < due:
                due = flow.finish_at
        if due == float("inf"):
            if self._flows and not any(flow.cap <= 0.0
                                       for flow in self._flows):
                raise SimulationError(
                    "active flows exist but none has a positive rate"
                )
            # Every runnable flow is stalled behind a fully-down link (or
            # none is left).  No completion can be scheduled; the fault
            # injector's restore callback will rebalance and resume them.
            # If no restore is pending the engine drains and the liveness
            # diagnostics name the stalled processes.
        else:
            # Guarantee measurable clock advance even for residual payloads.
            due = max(due, self.engine.now + 1e-12)
        if due == self._check_at:
            return
        self._generation += 1  # supersedes the pending check, if any
        self._check_at = due
        if due != float("inf"):
            self.engine.schedule_at(due, self._on_completion_check,
                                    self._generation)

    def _on_completion_check(self, generation: int) -> None:
        if generation != self._generation:
            return  # superseded: the earliest projected finish moved
        self._check_at = float("inf")
        self._reallocate({})


def _flow_id(flow: Flow) -> int:
    return flow.id


def _insert_by_id(flows: List[Flow], flow: Flow) -> None:
    """Insert ``flow`` into the id-ordered ``flows`` (usually at the end:
    flows activate roughly in creation order)."""
    index = len(flows)
    while index and flows[index - 1].id > flow.id:
        index -= 1
    flows.insert(index, flow)
