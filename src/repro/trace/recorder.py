"""Opt-in live recorder plus the one post-run trace builder.

:class:`TraceRecorder` is the only live instrumentation tracing adds.
It is deliberately inert: every hook appends to a Python list and never
touches the engine (no events, no timeouts, no ``note_touch``), so an
attached recorder cannot perturb the schedule — the tracing-invariance
test pins this with the perturbation differ.  It is one of the flow
network's observers, attached by :class:`repro.sim.probes.RunProbes`;
an untraced run's observer tuple is empty, so the hook sites cost one
loop over nothing.

Everything else a trace holds is *derived after the run ends* by
:func:`build_trace`, for training, cluster and serving runs alike:
rank-lane spans from the run's span list, fault windows from the
injector's materialized plan, link accounts and counter tracks from the
bandwidth ledgers (sampled on a :data:`DEFAULT_COUNTER_SAMPLES`-bin
grid), and per-rank memory from the pools.  Post-run derivation keeps
the recording surface minimal and guarantees the accounts reconcile with
the ledgers by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from .model import (
    CollectiveSpan,
    CounterTrack,
    FaultSpan,
    FlowSpan,
    LinkAccount,
    Span,
    Trace,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.events import FaultEvent
    from ..hardware.cluster import Cluster
    from ..sim.flows import Flow, FlowNetwork

#: Bins in each per-link utilization counter track.
DEFAULT_COUNTER_SAMPLES = 200


class TraceRecorder:
    """Collects flow and collective phases as they happen.

    The flow network calls :meth:`flow_closed` as one of its
    ``observers``; the executor's collective gates and the serving
    scheduler call :meth:`collective_phase` as their
    ``collective_sink``.  All methods are append-only.  ``network`` is
    the run's flow network, read once at the end for the flows still
    streaming.
    """

    def __init__(self, network: "FlowNetwork") -> None:
        self.network = network
        self.flows: List[FlowSpan] = []
        self.collectives: List[CollectiveSpan] = []

    # -- flow network hook -----------------------------------------------------
    def flow_closed(self, flow: "Flow", end: float) -> None:
        self.flows.append(self._span_of(flow, end, completed=True))

    # -- collective sink -------------------------------------------------------
    def collective_phase(self, comm: str, group_index: int, kind: str,
                         payload_bytes: float, launch_count: int,
                         ranks: Tuple[int, ...], start: float,
                         end: float) -> None:
        self.collectives.append(CollectiveSpan(
            comm=comm,
            group_index=group_index,
            kind=kind,
            payload_bytes=payload_bytes,
            launch_count=launch_count,
            ranks=ranks,
            start=start,
            end=end,
        ))

    # -- finalization ----------------------------------------------------------
    def drain_open_flows(self, end: float) -> None:
        """Close out the network's flows still streaming when the run
        ended, in id order.

        Their spans cover only the bytes that actually moved, and are
        marked ``completed=False``.
        """
        for flow in self.network.active_flows():
            self.flows.append(self._span_of(flow, end, completed=False))

    @staticmethod
    def _span_of(flow: "Flow", end: float, *, completed: bool) -> FlowSpan:
        moved = flow.bytes_total - (0.0 if completed else flow.bytes_remaining)
        return FlowSpan(
            flow_id=flow.id,
            label=flow.label,
            source=flow.route.source,
            destination=flow.route.destination,
            links=tuple(link.name for link in flow.route.links),
            num_bytes=moved,
            start=flow.started_at if flow.started_at is not None else end,
            end=end,
            completed=completed,
        )


def build_trace(cluster: "Cluster", total_time: float, *,
                spans: Iterable[Span],
                recorder: TraceRecorder,
                faults: Iterable["FaultEvent"] = (),
                counters: Sequence[str] = (),
                meta: Optional[Dict[str, object]] = None) -> Trace:
    """Assemble the :class:`Trace` of one finished run.

    ``spans`` are the rank-lane spans, ``faults`` the fault windows the
    injector applied, and ``counters`` names the end-of-run memory
    samples each rank gets: ``"device_mem"`` (its GPU pool) and
    ``"host_mem"`` (its DRAM pool).  Flow and collective spans come from
    ``recorder``; every link the run charged gets a
    :class:`LinkAccount` and a utilization track.  ``meta`` keeps its
    key order, and gains ``total_time`` unless it has one.

    Call this *after* all ledger charges are in (for a training run,
    after :func:`repro.core.runner._record_host_background`), so the
    link accounts equal the final ledger state exactly.
    """
    trace = Trace(meta=dict(meta or {}))
    trace.meta.setdefault("total_time", total_time)
    trace.spans = list(spans)
    recorder.drain_open_flows(total_time)
    trace.flows = list(recorder.flows)
    trace.collectives = list(recorder.collectives)
    trace.faults = [
        FaultSpan(
            kind=str(event.kind),
            target=event.target,
            magnitude=event.magnitude,
            start=event.start,
            end=event.end,
        )
        for event in faults
    ]

    for link in cluster.topology.links:
        ledger = link.ledger
        if len(ledger) == 0:
            continue
        trace.links.append(LinkAccount(
            name=link.name,
            link_class=str(link.link_class),
            total_bytes=ledger.total_bytes,
            record_count=len(ledger),
            degraded=tuple(ledger.degraded_intervals()),
        ))
        if total_time > 0:
            trace.counters.append(CounterTrack(
                name=f"link:{link.name}",
                unit="bytes/s",
                start=0.0,
                period=total_time / DEFAULT_COUNTER_SAMPLES,
                values=tuple(ledger.sample(0.0, total_time,
                                           DEFAULT_COUNTER_SAMPLES)),
            ))

    for rank in range(cluster.num_gpus):
        for name in counters:
            device = (cluster.gpu(rank) if name == "device_mem"
                      else cluster.dram_for_rank(rank))
            trace.counters.append(CounterTrack(
                name=f"rank{rank}:{name}",
                unit="bytes",
                start=0.0,
                period=total_time if total_time > 0 else 1.0,
                values=(device.memory.used_bytes,),
            ))
    return trace
