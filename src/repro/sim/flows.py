"""Fluid-flow transfer network with weighted max-min fair sharing.

Transfers are *flows*: a byte count streaming over a
:class:`~repro.hardware.topology.Route`.  Concurrent flows share link
capacity by weighted max-min fairness (the standard fluid approximation
for congestion-controlled fabrics such as NVLink, PCIe, and RoCE with
PFC).  A *pool* is one direction of one link; flows that share a pool,
directly or through a chain of other flows, form a *component*.  When a
flow starts or finishes, rates are recomputed only for the component the
change touches: max-min sharing splits exactly over components, so every
other flow keeps its rate.  An external capacity change re-rates every
flow (:meth:`FlowNetwork.rebalance`).  :func:`reference_rates` keeps the
global allocation over all flows at once as the reference the
component-local allocator is tested against.

SerDes contention (Section III-C4 of the paper) enters as a *consumption
weight*: a flow whose route is derated to fraction ``d`` consumes ``1/d``
units of pool capacity per delivered byte, so a contended path attains
``d x`` the link bandwidth whether one flow or many use it — matching the
stress-test observation that four kernels together reach only ~47-52 % of
theoretical.

Every settled interval is recorded into each traversed link's
:class:`~repro.hardware.link.BandwidthLedger`, which is where the paper's
Table IV statistics and Figs. 9/10/12 time-series come from.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import SimulationError
from ..hardware.serdes import TrafficProfile
from ..hardware.topology import PoolKey, Route
from ..units import Bytes, BytesPerSecond
from .engine import BaseEvent, BatchHandler, Engine, SimEvent


class Flow:
    """One in-flight transfer."""

    def __init__(self, route: Route, num_bytes: Bytes, *, flow_id: int,
                 profile: TrafficProfile, cap: Optional[BytesPerSecond],
                 label: str = "", weight_multiplier: float = 1.0) -> None:
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
        #: set by :meth:`refresh_capacity` whenever the flow is re-rated
        self.weight = 1.0
        self.cap = float("inf")
        self.rate = 0.0
        self.completion: Optional[SimEvent] = None
        self.started_at: Optional[float] = None

    #: residues below this are floating-point dust, not real payload
    EPSILON_BYTES = 1e-3

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
        capacity is read afresh, because faults change it.
        """
        links = self.route.links
        if not links:
            return 1.0, (
                float("inf") if self._user_cap is None else self._user_cap
            )
        bottleneck = min(link.capacity_per_direction for link in links)
        derate = bottleneck * self._derate
        if derate <= 0.0:
            return self.weight_multiplier, 0.0
        weight = bottleneck / derate * self.weight_multiplier
        cap = derate if self._user_cap is None else min(derate, self._user_cap)
        return weight, cap

    def refresh_capacity(self) -> None:
        """Re-derive ``weight`` and ``cap`` (see :meth:`capacity`).

        Called for every flow the allocator re-rates: link capacities
        are time-varying under fault injection.
        """
        self.weight, self.cap = self.capacity()


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


class FlowNetwork:
    """Shares link capacity among active flows and completes them in order."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        #: active flows in id order; every float fold over flows (ledger
        #: records, byte totals) follows this order, so repeated runs of
        #: one configuration agree to the last bit
        self._flows: List[Flow] = []
        #: active members of every loaded pool, in id order
        self._members: Dict[PoolKey, List[Flow]] = {}
        self._flow_ids = itertools.count()
        self._generation = 0
        self._last_update = engine.now
        self.completed_flows = 0
        self.total_bytes_moved = 0.0
        #: optional :class:`repro.trace.TraceRecorder`.  Its hooks only
        #: append to Python lists — they never schedule events or touch
        #: engine state — so an attached recorder cannot perturb the
        #: simulated schedule.
        self.recorder = None
        #: optional :class:`repro.sim.leaksan.LeakSanitizer`.  Same
        #: invariant as the recorder: its hooks shadow flow lifecycles
        #: with ledger reservations (pure bookkeeping — never admission
        #: control) and cannot perturb the simulated schedule.
        self.leaksan = None
        #: Batchable activation: a collective launching N flows at one
        #: instant folds into a single settle + N adds + one reallocate,
        #: replacing N full water-filling rounds (see
        #: :class:`~repro.sim.engine.BatchHandler`).
        self._activate = BatchHandler(self._activate_one,
                                      self._activate_batch)

    # -- public API -------------------------------------------------------------
    def transfer(self, route: Route, num_bytes: Bytes, *,
                 profile: TrafficProfile = TrafficProfile.BURSTY,
                 cap: Optional[BytesPerSecond] = None,
                 label: str = "",
                 weight_multiplier: float = 1.0) -> BaseEvent:
        """Start a transfer; returns an event fired at completion.

        The flow begins streaming after the route's end-to-end latency.
        Zero-byte or loopback transfers complete after just the latency.
        """
        event = self.engine.event()
        if num_bytes <= 0 or route.is_loopback:
            delay = 0.0 if route.is_loopback else route.latency()
            self.engine.schedule_at(self.engine.now + delay, event.succeed, None)
            return event
        flow = Flow(route, num_bytes, flow_id=next(self._flow_ids),
                    profile=profile, cap=cap, label=label,
                    weight_multiplier=weight_multiplier)
        flow.completion = event
        self.engine.schedule_at(
            self.engine.now + route.latency(), self._activate, flow
        )
        return event

    @property
    def active_count(self) -> int:
        return len(self._flows)

    def active_flows(self) -> List[Flow]:
        """The active flows in id order."""
        return list(self._flows)

    def settle(self) -> None:
        """Account in-flight transfers up to the current simulated time.

        Ledger records are normally written when flows start or finish;
        open-ended measurements (the stress tests run flows that outlive
        the measurement window) call this before reading the ledgers.
        """
        self._settle()

    def rebalance(self) -> None:
        """Recompute every active flow's rate after a capacity change.

        Rates are otherwise recomputed only for the flows a start or
        finish touches, so **any** change to a link's capacity must be
        followed by a call to this method.  The fault injector calls
        :meth:`settle` *before* degrading or restoring link capacity (so
        in-flight intervals are accounted at the rates that actually
        applied) and this afterwards, so every active flow's rate
        reflects the new capacities from this instant.
        """
        self._settle()
        self._reallocate(dict.fromkeys(self._members))

    # -- internals -----------------------------------------------------------------
    def _start(self, flow: Flow) -> None:
        flow.started_at = self.engine.now
        if self.recorder is not None:
            self.recorder.flow_started(flow)
        if self.leaksan is not None:
            self.leaksan.flow_opened(flow)

    def _add(self, flow: Flow, touched: Dict[PoolKey, None]) -> None:
        _insert_by_id(self._flows, flow)
        for key in flow.route.pool_keys:
            _insert_by_id(self._members.setdefault(key, []), flow)
            touched[key] = None

    def _activate_one(self, flow: Flow) -> None:
        self._start(flow)
        self.engine.note_touch("flows:allocator")
        self._settle()
        touched: Dict[PoolKey, None] = {}
        self._add(flow, touched)
        self._reallocate(touched)

    def _activate_batch(self, batch: List[Tuple[Flow]]) -> None:
        """Activate a same-timestamp run of flows with one allocation.

        Equivalent to :meth:`_activate_one` per flow in order: between
        same-timestamp activations no simulated time elapses, so the
        intermediate ``_settle`` calls account nothing and the
        intermediate rate allocations never apply (their completion
        checks are superseded by ``_generation``).  Only the final
        allocation of each touched component has observable effect —
        which is exactly what this computes once.
        """
        self.engine.note_touch("flows:allocator")
        self._settle()
        touched: Dict[PoolKey, None] = {}
        for (flow,) in batch:
            self._start(flow)
            self._add(flow, touched)
        self._reallocate(touched)

    def _settle(self) -> None:
        """Account bytes moved since the last change at the current rates."""
        now = self.engine.now
        elapsed = now - self._last_update
        if elapsed > 0:
            start = now - elapsed
            sanitizer = self.engine.sanitizer
            for flow in self._flows:
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
                    self.total_bytes_moved += moved
                    flow.route.record(start, now, moved)
        self._last_update = now

    def _reallocate(self, touched: Dict[PoolKey, None]) -> None:
        """Retire finished flows, re-rate the components of the
        ``touched`` pools (plus those the finished flows leave), then
        schedule the next completion."""
        self.engine.note_touch("flows:allocator")
        self._generation += 1
        finished = [flow for flow in self._flows if flow.done]
        if finished:
            self._flows = [flow for flow in self._flows if not flow.done]
            for flow in finished:
                for key in flow.route.pool_keys:
                    members = self._members[key]
                    members.remove(flow)
                    if not members:
                        del self._members[key]
                    touched[key] = None
            for flow in finished:
                self.completed_flows += 1
                if self.recorder is not None:
                    self.recorder.flow_finished(flow, self.engine.now)
                if self.leaksan is not None:
                    self.leaksan.flow_closed(flow, self.engine.now)
                assert flow.completion is not None
                flow.completion.succeed(None)
        if not self._flows:
            return
        self._rerate(touched)
        self._schedule_next_completion()

    def _rerate(self, touched: Dict[PoolKey, None]) -> None:
        """Water-fill each component that loads a ``touched`` pool."""
        placed: Set[Flow] = set()
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
                for flow in component:
                    flow.refresh_capacity()
                for flow, rate in zip(component, _water_fill(component)):
                    flow.rate = rate

    def _schedule_next_completion(self) -> None:
        soonest = float("inf")
        for flow in self._flows:
            if flow.rate > 0:
                until_done = flow.bytes_remaining / flow.rate
                if until_done < soonest:
                    soonest = until_done
        if soonest == float("inf"):
            if any(flow.cap <= 0.0 for flow in self._flows):
                # Every runnable flow is stalled behind a fully-down link.
                # No completion can be scheduled; the fault injector's
                # restore callback will rebalance and resume them.  If no
                # restore is pending the engine drains and the liveness
                # diagnostics name the stalled processes.
                return
            raise SimulationError(
                "active flows exist but none has a positive rate"
            )
        # Guarantee measurable clock advance even for residual payloads.
        soonest = max(soonest, 1e-12)
        generation = self._generation
        self.engine.schedule_at(
            self.engine.now + soonest, self._on_completion_check, generation
        )

    def _on_completion_check(self, generation: int) -> None:
        if generation != self._generation:
            return  # superseded by a newer allocation epoch
        self._settle()
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
