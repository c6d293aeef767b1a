"""Opt-in runtime leak sanitizer: the dynamic half of the RES family.

The static typestate passes (:mod:`repro.analysis.lifecycle`) prove
acquire/release conformance per function; this module *observes* it per
run.  A :class:`LeakSanitizer` attached to a run

* tags every :class:`~repro.hardware.devices.MemoryPool` allocation and
  free with an observer (the pools call back; nothing in the allocation
  path changes);
* shadows every flow with per-link :class:`~repro.hardware.link.
  BandwidthLedger` reservations — ``reserve`` on activation, ``settle``
  on completion — so the ledgers' outstanding balance is a live census
  of in-flight ownership (the flow-epoch and ledger-reservation
  protocols of :mod:`~repro.analysis.lifecycle.protocols`);
* at teardown, audits pools, ledgers, open flows, and undrained trace
  spans for outstanding balance.

Everything is opt-in and schedule-invariant: the observer hooks only
append to Python dicts/lists and never schedule events or touch engine
state, and ledger reservations are ownership bookkeeping, not admission
control — ``record``/``sample`` behave identically with the sanitizer
on or off, so golden traces stay byte-identical.

Finding codes (claimed here, listed in the ``RES0xx`` catalog of
:mod:`repro.analysis.lifecycle.passes`):

* ``RES007`` — outstanding pool/ledger/flow/span balance at teardown;
* ``RES008`` — runtime protocol error observed under instrumentation
  (free of an unknown label, settle of an unknown flow);
* ``RES009`` — cross-validation verdict joining a runtime leak with the
  static RES findings (:func:`cross_validate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.findings import Finding, Severity
from ..analysis.registry import claim_codes
from ..errors import SimulationError
from ..hardware.link import BandwidthLedger, Reservation
from ..units import GB

#: Stable finding codes for runtime lifecycle diagnostics.
LEAK_CODES = ("RES007", "RES008", "RES009")

_REPORTER_NAME = "leak-sanitizer"

claim_codes(_REPORTER_NAME, LEAK_CODES)

#: Keep at most this many concrete leak records; beyond it only the
#: counters grow, so a pathological run cannot bloat the report.
MAX_RECORDED_LEAKS = 64


@dataclass(frozen=True)
class LeakRecord:
    """One observed lifecycle violation."""

    #: protocol name from the lifecycle protocol table
    protocol: str
    #: RES007 (outstanding at teardown) or RES008 (protocol error)
    code: str
    #: the pool/ledger/flow the violation is about
    resource: str
    #: what leaked or went wrong
    detail: str
    #: leaked amount in bytes where meaningful, else 0
    amount_bytes: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "code": self.code,
            "resource": self.resource,
            "detail": self.detail,
            "amount_bytes": self.amount_bytes,
        }


@dataclass
class LeakReport:
    """Everything one leak-checked run observed."""

    records: List[LeakRecord] = field(default_factory=list)
    #: violations beyond the recording cap (counted, not materialized)
    suppressed: int = 0
    pools_audited: int = 0
    ledgers_audited: int = 0
    #: pool allocate/free pairs observed through the observer hooks
    pool_events: int = 0
    #: flows shadowed with ledger reservations
    flows_tracked: int = 0
    #: per-link reservations opened on behalf of flows
    reservations_opened: int = 0

    @property
    def clean(self) -> bool:
        return not self.records and not self.suppressed

    @property
    def leaked_bytes(self) -> float:
        return sum(r.amount_bytes for r in self.records)

    def to_dict(self) -> Dict[str, object]:
        return {
            "records": [r.to_dict() for r in self.records],
            "suppressed": self.suppressed,
            "pools_audited": self.pools_audited,
            "ledgers_audited": self.ledgers_audited,
            "pool_events": self.pool_events,
            "flows_tracked": self.flows_tracked,
            "reservations_opened": self.reservations_opened,
            "leaked_bytes": self.leaked_bytes,
            "clean": self.clean,
        }

    def assert_clean(self) -> None:
        """Raise :class:`~repro.errors.SimulationError` on any leak."""
        if self.clean:
            return
        worst = self.records[:5]
        detail = "; ".join(
            f"[{r.code}] {r.resource}: {r.detail}" for r in worst
        )
        raise SimulationError(
            f"leak sanitizer found {len(self.records)} outstanding "
            f"balance(s) at teardown ({self.leaked_bytes / GB:.3f} GB "
            f"leaked): {detail}"
        )

    def findings(self) -> List[Finding]:
        """The report as analysis findings (for reports and baselines)."""
        return [
            Finding(
                _REPORTER_NAME,
                Severity.ERROR if r.code == "RES008" else Severity.WARNING,
                r.code,
                f"{r.detail} ({r.protocol} protocol)",
                subject=r.resource,
            )
            for r in self.records
        ]


class LeakSanitizer:
    """Instrument pools/ledgers/flows with ownership tracking.

    Attach with :meth:`attach` before resources are acquired, run the
    simulation, then :meth:`finalize` after teardown released what it
    legitimately holds, and :meth:`detach`.  Runs do all three through
    :class:`repro.sim.probes.RunProbes`, which also puts the sanitizer
    among the flow network's observers.  The report's
    :attr:`~LeakReport.clean` is the zero-outstanding-balance assertion.
    """

    def __init__(self) -> None:
        self.report = LeakReport()
        #: flow.id -> (ledger, reservation) per traversed link
        self._open_flows: Dict[
            int, List[Tuple[BandwidthLedger, Reservation]]] = {}
        self._flow_labels: Dict[int, str] = {}

    # -- wiring --------------------------------------------------------------
    def attach(self, cluster: Any) -> None:
        """Observe every memory pool of ``cluster``."""
        for pool in self._pools(cluster):
            pool.observer = self

    def detach(self, cluster: Any) -> None:
        """Stop observing ``cluster``'s pools; a pool another sanitizer
        observes keeps its observer."""
        for pool in self._pools(cluster):
            if pool.observer is self:
                pool.observer = None

    @staticmethod
    def _pools(cluster: Any) -> List[Any]:
        pools: Dict[int, Any] = {}
        for device in cluster.topology.devices:
            if device.memory is not None:
                pools.setdefault(id(device.memory), device.memory)
        return list(pools.values())

    # -- pool observer hooks (called by MemoryPool) --------------------------
    def pool_allocated(self, pool: Any, label: str,
                       num_bytes: float) -> None:
        self.report.pool_events += 1

    def pool_freed(self, pool: Any, label: str, amount: float) -> None:
        self.report.pool_events += 1

    def pool_free_missing(self, pool: Any, label: str) -> None:
        self._record(LeakRecord(
            protocol="memory-pool", code="RES008",
            resource=pool.owner or "memory pool",
            detail=f"free of unknown label {label!r} (double-free or "
                   f"never allocated)",
        ))

    # -- flow hooks (called by FlowNetwork) ----------------------------------
    def flow_opened(self, flow: Any) -> None:
        """Shadow an activating flow with one reservation per link."""
        owner = f"flow:{flow.id}" + (f":{flow.label}" if flow.label
                                     else "")
        held: List[Tuple[BandwidthLedger, Reservation]] = []
        for link in flow.route.links:
            reservation = link.ledger.reserve(flow.bytes_total,
                                              owner=owner)
            held.append((link.ledger, reservation))
            self.report.reservations_opened += 1
        self._open_flows[flow.id] = held
        self._flow_labels[flow.id] = owner
        self.report.flows_tracked += 1

    def flow_closed(self, flow: Any, now: float) -> None:
        """Settle the flow's reservations; an unknown flow is RES008."""
        held = self._open_flows.pop(flow.id, None)
        self._flow_labels.pop(flow.id, None)
        if held is None:
            self._record(LeakRecord(
                protocol="flow-epoch", code="RES008",
                resource=f"flow:{flow.id}",
                detail=f"flow {flow.id} completed at t={now:.6g} but was "
                       f"never observed activating (epoch mismatch)",
            ))
            return
        for ledger, reservation in held:
            ledger.settle(reservation)

    # -- teardown audit ------------------------------------------------------
    def finalize(self, cluster: Any, network: Any = None,
                 recorder: Any = None) -> LeakReport:
        """Audit every instrumented resource for outstanding balance.

        Call after teardown has released everything it legitimately
        holds (the memory plan's labels, settled flows); whatever is
        still outstanding is a leak.
        """
        for flow_id in sorted(self._open_flows):
            self._record(LeakRecord(
                protocol="flow-epoch", code="RES007",
                resource=self._flow_labels.get(flow_id,
                                               f"flow:{flow_id}"),
                detail=f"flow {flow_id} was still active at teardown",
            ))
        for pool in self._pools(cluster):
            self.report.pools_audited += 1
            for label, amount in sorted(pool.usage_by_label().items()):
                if amount <= 0.0:
                    continue
                self._record(LeakRecord(
                    protocol="memory-pool", code="RES007",
                    resource=pool.owner or "memory pool",
                    detail=f"label {label!r} holds "
                           f"{amount / GB:.3f} GB at teardown",
                    amount_bytes=amount,
                ))
        for link in cluster.topology.links:
            self.report.ledgers_audited += 1
            for reservation in link.ledger.open_reservations():
                self._record(LeakRecord(
                    protocol="ledger-reservation", code="RES007",
                    resource=link.name,
                    detail=f"reservation #{reservation.reservation_id} "
                           f"({reservation.owner or 'unowned'}) holds "
                           f"{reservation.num_bytes / GB:.3f} GB at "
                           f"teardown",
                    amount_bytes=reservation.num_bytes,
                ))
        if recorder is not None:
            for flow_id in recorder.open_flow_ids():
                self._record(LeakRecord(
                    protocol="trace-span", code="RES007",
                    resource=f"flow:{flow_id}",
                    detail=f"trace span for flow {flow_id} was opened "
                           f"but never closed or drained",
                ))
        if network is not None and network.active_count:
            self._record(LeakRecord(
                protocol="flow-epoch", code="RES007",
                resource="flows:allocator",
                detail=f"{network.active_count} flow(s) still registered "
                       f"active at teardown",
            ))
        return self.report

    def _record(self, record: LeakRecord) -> None:
        if len(self.report.records) >= MAX_RECORDED_LEAKS:
            self.report.suppressed += 1
            return
        self.report.records.append(record)


def cross_validate(static_findings: List[Finding],
                   report: LeakReport) -> List[Finding]:
    """Join static RES findings with the runtime leak report (RES009).

    For each protocol the runtime observed leaking, an INFO finding
    states whether the static typestate pass *corroborates* it (a
    ``RES001``/``RES002`` finding exists for the same protocol family)
    or the leak is dynamic-only (born in runtime callbacks the static
    pass does not model — the flow-epoch and trace-span protocols, or a
    path through exec/getattr).  Symmetrically, a static leak finding
    with a clean runtime protocol is reported as unconfirmed — possibly
    latent (the leaking path did not execute) or a false positive.
    """
    verdicts: List[Finding] = []
    static_leaks = [f for f in static_findings
                    if f.code in ("RES001", "RES002")]
    runtime_leaked = {r.protocol for r in report.records}
    for protocol in sorted(runtime_leaked):
        matches = [f for f in static_leaks if protocol in f.message]
        if matches:
            where = ", ".join(sorted({f.location for f in matches})[:3])
            detail = f"corroborated by static findings at {where}"
        else:
            detail = ("dynamic-only: no static RES finding names this "
                      "protocol (leak born in runtime callbacks or an "
                      "unmodelled path)")
        verdicts.append(Finding(
            _REPORTER_NAME, Severity.INFO, "RES009",
            f"runtime leak on the {protocol} protocol: {detail}",
            subject=protocol,
        ))
    for finding in static_leaks:
        protocol = next(
            (r.protocol for r in report.records
             if r.protocol in finding.message), None)
        if protocol is None and report.clean:
            verdicts.append(Finding(
                _REPORTER_NAME, Severity.INFO, "RES009",
                f"static finding {finding.code} at {finding.location} "
                f"had no runtime counterpart in this run (latent path "
                f"or false positive)",
                subject=finding.subject,
            ))
    return verdicts
