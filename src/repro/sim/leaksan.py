"""Opt-in runtime leak audit: every acquire of a run is released.

:func:`audit_leaks` reads, at teardown, the two books the simulator
already keeps for what a run holds:

* every :class:`~repro.hardware.devices.MemoryPool`'s live labels
  (``usage_by_label``): a label with a positive balance is a leaked
  allocation (an ``allocate`` no ``free`` matched; the ``memory-pool``
  protocol);
* the flow network's active flows (``active_flows``): a flow still
  registered is a transfer that never finished (the ``flow-epoch``
  protocol).

The audit only reads — it settles no flow and writes no ledger record —
so a leak-checked run's schedule, ledgers and traces are identical to an
unchecked one's.  Its one finding code, ``RES007`` (an outstanding pool
balance or active flow at teardown), is claimed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..analysis.findings import Finding, Severity
from ..analysis.registry import claim_codes
from ..errors import SimulationError
from ..units import GB

#: Stable finding codes for runtime leak diagnostics.
LEAK_CODES = ("RES007",)

_REPORTER_NAME = "leak-sanitizer"

claim_codes(_REPORTER_NAME, LEAK_CODES)

#: Keep at most this many concrete leak records; beyond it only the
#: counters grow, so a pathological run cannot bloat the report.
MAX_RECORDED_LEAKS = 64


@dataclass(frozen=True)
class LeakRecord:
    """One resource still held at teardown."""

    #: protocol name: ``memory-pool`` or ``flow-epoch``
    protocol: str
    #: RES007 (outstanding at teardown)
    code: str
    #: the pool or flow the leak is about
    resource: str
    #: what leaked
    detail: str
    #: leaked amount in bytes
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
    """Everything one leak-checked run left outstanding."""

    records: List[LeakRecord] = field(default_factory=list)
    #: leaks beyond the recording cap (counted, not materialized)
    suppressed: int = 0
    #: bytes of the suppressed leaks
    suppressed_bytes: float = 0
    pools_audited: int = 0

    @property
    def clean(self) -> bool:
        return not self.records and not self.suppressed

    @property
    def leaked_bytes(self) -> float:
        return (sum(r.amount_bytes for r in self.records)
                + self.suppressed_bytes)

    def add(self, record: LeakRecord) -> None:
        """Keep ``record``, or only count it past the recording cap."""
        if len(self.records) >= MAX_RECORDED_LEAKS:
            self.suppressed += 1
            self.suppressed_bytes += record.amount_bytes
            return
        self.records.append(record)

    def to_dict(self) -> Dict[str, object]:
        return {
            "records": [r.to_dict() for r in self.records],
            "suppressed": self.suppressed,
            "pools_audited": self.pools_audited,
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
            f"leak sanitizer found {len(self.records) + self.suppressed} "
            f"outstanding balance(s) at teardown "
            f"({self.leaked_bytes / GB:.3f} GB leaked): {detail}"
        )

    def findings(self) -> List[Finding]:
        """The report as analysis findings (for reports and baselines)."""
        return [
            Finding(
                _REPORTER_NAME, Severity.WARNING, r.code,
                f"{r.detail} ({r.protocol} protocol)",
                subject=r.resource,
            )
            for r in self.records
        ]


def audit_leaks(cluster: Any, network: Any) -> LeakReport:
    """Report every flow and pool label ``cluster`` still holds.

    Call after teardown has released everything the run legitimately
    holds (the memory plan's labels); whatever is still outstanding is a
    leak.  ``network`` is the run's flow network.
    """
    report = LeakReport()
    for flow in network.active_flows():
        report.add(LeakRecord(
            protocol="flow-epoch", code="RES007",
            resource=f"flow:{flow.id}" + (f":{flow.label}" if flow.label
                                          else ""),
            detail=f"flow {flow.id} was still active at teardown",
            amount_bytes=flow.bytes_total,
        ))
    for device in cluster.topology.devices:
        pool = device.memory
        if pool is None:
            continue
        report.pools_audited += 1
        for label, amount in sorted(pool.usage_by_label().items()):
            if amount <= 0.0:
                continue
            report.add(LeakRecord(
                protocol="memory-pool", code="RES007",
                resource=pool.owner or "memory pool",
                detail=f"label {label!r} holds "
                       f"{amount / GB:.3f} GB at teardown",
                amount_bytes=amount,
            ))
    return report
