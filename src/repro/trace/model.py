"""The trace data model: spans, counter tracks, link accounts.

A :class:`Trace` is the machine-readable record of one simulated run —
the single source of truth for time-domain data.  It holds:

* :class:`Span` — one interval of activity on one rank's lane (a kernel,
  a collective the rank waited in, a host/NVMe transfer, idle time).
  The executor appends one per step to ``ExecutionResult.spans``, the
  list Fig. 5's renderer and the query functions read.
* :class:`CollectiveSpan` — one collective *phase*: the rendezvous-to-
  completion window of one keyed collective on one communicator group,
  tagged with the group's ranks and payload.
* :class:`FlowSpan` — one fluid-flow transfer: activation to
  completion, with the traversed link names and total bytes, recorded
  live by the :class:`~repro.trace.recorder.TraceRecorder`.
* :class:`FaultSpan` — one injected fault window (apply to revert).
* :class:`LinkAccount` — per-link byte totals/record counts taken from
  the bandwidth ledgers; :mod:`~repro.trace.reconcile` asserts these
  equal the ledgers exactly after a JSON round trip.
* :class:`CounterTrack` — a regular-grid sample series (per-link
  instantaneous bytes/s, per-rank device/host memory).

Everything serializes to a compact native JSON schema
(:data:`TRACE_SCHEMA`) via :meth:`Trace.to_dict` / :meth:`Trace.from_dict`;
:mod:`~repro.trace.export` wraps it in Chrome Trace Event JSON.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..runtime.kernels import KernelKind

#: Native schema identifier; bump on incompatible layout changes.
TRACE_SCHEMA = "repro-trace/1"


class Lane(enum.IntEnum):
    """Concurrent activity lanes per rank (akin to CUDA streams)."""

    COMPUTE = 0
    COMMUNICATION = 1
    HOST_IO = 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


@dataclass(frozen=True)
class Span:
    """One interval of activity on one rank's lane."""

    rank: int
    lane: Lane
    kind: KernelKind
    name: str
    start: float
    end: float
    #: True for spans the hybrid extrapolator replicated analytically
    #: rather than simulated (:mod:`repro.sim.fastpath.extrapolate`).
    synthetic: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "rank": self.rank,
            "lane": str(self.lane),
            "kind": self.kind.value,
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }
        # Omitted when False so full-fidelity traces serialize unchanged.
        if self.synthetic:
            payload["synthetic"] = True
        return payload

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "Span":
        return Span(
            rank=int(data["rank"]),  # type: ignore[arg-type]
            lane=Lane[str(data["lane"]).upper()],
            kind=KernelKind(data["kind"]),
            name=str(data["name"]),
            start=float(data["start"]),  # type: ignore[arg-type]
            end=float(data["end"]),  # type: ignore[arg-type]
            synthetic=bool(data.get("synthetic", False)),  # type: ignore[union-attr]
        )


@dataclass(frozen=True)
class CollectiveSpan:
    """One collective phase on one communicator group."""

    comm: str
    group_index: int
    kind: str
    payload_bytes: float
    launch_count: int
    ranks: Tuple[int, ...]
    start: float
    end: float
    #: True for spans the hybrid extrapolator replicated analytically.
    synthetic: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "comm": self.comm,
            "group": self.group_index,
            "kind": self.kind,
            "payload_bytes": self.payload_bytes,
            "launch_count": self.launch_count,
            "ranks": list(self.ranks),
            "start": self.start,
            "end": self.end,
        }
        if self.synthetic:
            payload["synthetic"] = True
        return payload

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "CollectiveSpan":
        return CollectiveSpan(
            comm=str(data["comm"]),
            group_index=int(data["group"]),  # type: ignore[arg-type]
            kind=str(data["kind"]),
            payload_bytes=float(data["payload_bytes"]),  # type: ignore[arg-type]
            launch_count=int(data["launch_count"]),  # type: ignore[arg-type]
            ranks=tuple(int(r) for r in data["ranks"]),  # type: ignore[union-attr]
            start=float(data["start"]),  # type: ignore[arg-type]
            end=float(data["end"]),  # type: ignore[arg-type]
            synthetic=bool(data.get("synthetic", False)),  # type: ignore[union-attr]
        )


@dataclass(frozen=True)
class FlowSpan:
    """One fluid-flow transfer, activation to completion."""

    flow_id: int
    label: str
    source: str
    destination: str
    links: Tuple[str, ...]
    num_bytes: float
    start: float
    end: float
    #: False when the run ended with the flow still streaming (the span's
    #: ``num_bytes`` then covers only what actually moved).
    completed: bool = True
    #: True for spans the hybrid extrapolator replicated analytically.
    synthetic: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "id": self.flow_id,
            "label": self.label,
            "src": self.source,
            "dst": self.destination,
            "links": list(self.links),
            "bytes": self.num_bytes,
            "start": self.start,
            "end": self.end,
            "completed": self.completed,
        }
        if self.synthetic:
            payload["synthetic"] = True
        return payload

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "FlowSpan":
        return FlowSpan(
            flow_id=int(data["id"]),  # type: ignore[arg-type]
            label=str(data["label"]),
            source=str(data["src"]),
            destination=str(data["dst"]),
            links=tuple(str(name) for name in data["links"]),  # type: ignore[union-attr]
            num_bytes=float(data["bytes"]),  # type: ignore[arg-type]
            start=float(data["start"]),  # type: ignore[arg-type]
            end=float(data["end"]),  # type: ignore[arg-type]
            completed=bool(data.get("completed", True)),  # type: ignore[union-attr]
            synthetic=bool(data.get("synthetic", False)),  # type: ignore[union-attr]
        )


@dataclass(frozen=True)
class FaultSpan:
    """One injected fault window (apply to revert)."""

    kind: str
    target: str
    magnitude: float
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "target": self.target,
            "magnitude": self.magnitude,
            "start": self.start,
            "end": self.end,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "FaultSpan":
        return FaultSpan(
            kind=str(data["kind"]),
            target=str(data["target"]),
            magnitude=float(data["magnitude"]),  # type: ignore[arg-type]
            start=float(data["start"]),  # type: ignore[arg-type]
            end=float(data["end"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class LinkAccount:
    """Per-link byte totals from one link's bandwidth ledger."""

    name: str
    link_class: str
    total_bytes: float
    record_count: int
    degraded: Tuple[Tuple[float, float], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "class": self.link_class,
            "bytes": self.total_bytes,
            "records": self.record_count,
            "degraded": [list(window) for window in self.degraded],
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "LinkAccount":
        return LinkAccount(
            name=str(data["name"]),
            link_class=str(data["class"]),
            total_bytes=float(data["bytes"]),  # type: ignore[arg-type]
            record_count=int(data["records"]),  # type: ignore[arg-type]
            degraded=tuple(
                (float(lo), float(hi))
                for lo, hi in data.get("degraded", [])  # type: ignore[union-attr]
            ),
        )


@dataclass(frozen=True)
class CounterTrack:
    """A regular-grid sample series for one counter."""

    name: str
    unit: str
    start: float
    period: float
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigurationError("counter period must be positive")

    @property
    def end(self) -> float:
        return self.start + self.period * len(self.values)

    def integral(self) -> float:
        """Sum of value x period — total bytes for a bytes/s track."""
        return sum(self.values) * self.period

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "unit": self.unit,
            "start": self.start,
            "period": self.period,
            "values": list(self.values),
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "CounterTrack":
        return CounterTrack(
            name=str(data["name"]),
            unit=str(data["unit"]),
            start=float(data["start"]),  # type: ignore[arg-type]
            period=float(data["period"]),  # type: ignore[arg-type]
            values=tuple(float(v) for v in data["values"]),  # type: ignore[union-attr]
        )


@dataclass
class Trace:
    """Everything one traced run recorded, in one serializable container."""

    meta: Dict[str, object] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    collectives: List[CollectiveSpan] = field(default_factory=list)
    flows: List[FlowSpan] = field(default_factory=list)
    faults: List[FaultSpan] = field(default_factory=list)
    links: List[LinkAccount] = field(default_factory=list)
    counters: List[CounterTrack] = field(default_factory=list)

    # -- queries ---------------------------------------------------------------
    @property
    def ranks(self) -> List[int]:
        return sorted({span.rank for span in self.spans})

    @property
    def span_bounds(self) -> Tuple[float, float]:
        if not self.spans:
            return (0.0, 0.0)
        return (
            min(span.start for span in self.spans),
            max(span.end for span in self.spans),
        )

    def link_account(self, name: str) -> Optional[LinkAccount]:
        for account in self.links:
            if account.name == name:
                return account
        return None

    def counter(self, name: str) -> Optional[CounterTrack]:
        for track in self.counters:
            if track.name == name:
                return track
        return None

    def per_link_bytes(self) -> Dict[str, float]:
        """Total bytes over each link, from the link accounts."""
        return {account.name: account.total_bytes for account in self.links}

    def flow_bytes_by_link(self) -> Dict[str, float]:
        """Bytes each link carried for *flow* traffic, from flow spans.

        A flow charges its full byte count to every link it traverses
        (the ledger convention), so this is directly comparable to the
        link accounts minus any direct (non-flow) ledger charges.
        """
        out: Dict[str, float] = {}
        for flow in self.flows:
            for link_name in flow.links:
                out[link_name] = out.get(link_name, 0.0) + flow.num_bytes
        return out

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": TRACE_SCHEMA,
            "meta": dict(self.meta),
            "spans": [span.to_dict() for span in self.spans],
            "collectives": [c.to_dict() for c in self.collectives],
            "flows": [f.to_dict() for f in self.flows],
            "faults": [f.to_dict() for f in self.faults],
            "links": [account.to_dict() for account in self.links],
            "counters": [track.to_dict() for track in self.counters],
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "Trace":
        schema = data.get("schema")
        if schema != TRACE_SCHEMA:
            raise ConfigurationError(
                f"unsupported trace schema {schema!r} (want {TRACE_SCHEMA!r})"
            )
        return Trace(
            meta=dict(data.get("meta", {})),  # type: ignore[arg-type]
            spans=[Span.from_dict(d) for d in data.get("spans", [])],  # type: ignore[union-attr]
            collectives=[
                CollectiveSpan.from_dict(d)
                for d in data.get("collectives", [])  # type: ignore[union-attr]
            ],
            flows=[FlowSpan.from_dict(d) for d in data.get("flows", [])],  # type: ignore[union-attr]
            faults=[FaultSpan.from_dict(d) for d in data.get("faults", [])],  # type: ignore[union-attr]
            links=[
                LinkAccount.from_dict(d) for d in data.get("links", [])  # type: ignore[union-attr]
            ],
            counters=[
                CounterTrack.from_dict(d)
                for d in data.get("counters", [])  # type: ignore[union-attr]
            ],
        )
