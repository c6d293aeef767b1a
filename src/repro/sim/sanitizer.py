"""Dynamic schedule sanitizer: observe same-timestamp event ties.

The engine breaks ties between callbacks scheduled at the same simulated
instant only by insertion ``seq`` — an arbitrary order nothing in the
physics depends on *if the simulation is race-free*.  This module is the
dynamic half of the ``repro.analysis.determinism`` subsystem (the static
half is the ``DET0xx`` AST passes): attached to an engine, it

* records every *tie group* — two or more callbacks popped at the exact
  same timestamp, whose mutual order is decided only by ``seq``;
* flags groups in which two or more of those callbacks touched the same
  shared resource (a link's bandwidth ledger, the flow network's
  allocator state, a collective stream, the fault injector) — the
  scheduling analog of a data race: a tie whose resolution *could*
  matter;
* after the run, audits every link ledger record against the capacity
  actually in effect during its interval (``Link.max_capacity_over``),
  so no interval double-books a link.

Flagged ties are *suspects*, not verdicts: the perturbation differ
(:mod:`repro.analysis.determinism.differ`) reruns the configuration under
a reversed or seeded-permuted tie order and confirms or refutes them.

This module stays dependency-free like the engine; converting its report
into :class:`~repro.analysis.findings.Finding` objects is the analysis
layer's job (:mod:`repro.analysis.determinism.dynamic`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .engine import Engine

#: Ledger rates may exceed the capacity-in-effect by this factor before
#: the audit flags them — covers rounding in flow splits and the coarse
#: one-record host-background charges.
RATE_TOLERANCE = 1.05

#: Keep at most this many concrete conflict samples; beyond it only the
#: counters grow, so a chatty run cannot bloat the report.
MAX_RECORDED_CONFLICTS = 32


def ledger_capacity_violations(cluster: Any) -> List[str]:
    """One line per ledger record that double-books its link: its average
    rate exceeds the highest capacity in effect in its interval (time-varying
    under faults) times :data:`RATE_TOLERANCE`.  Records of 1 ns or less are
    skipped.  The sanitizer's audit and the run validator both use this.
    Only a record faster than the link's lowest capacity (or one ending
    by time 0, when none was in effect) can be over, so only those are
    checked one at a time."""
    violations: List[str] = []
    for link in cluster.topology.links:
        floor = link.lowest_capacity() * RATE_TOLERANCE
        for starts, ends, sizes, _ in link.ledger.chunks():
            wide = ends - starts > 1e-9
            starts, ends, sizes = starts[wide], ends[wide], sizes[wide]
            suspect = (sizes / (ends - starts) > floor) | (ends <= 0.0)
            for start, end, num_bytes in zip(starts[suspect].tolist(),
                                             ends[suspect].tolist(),
                                             sizes[suspect].tolist()):
                ceiling = link.max_capacity_over(start, end)
                rate = num_bytes / (end - start)
                if rate > ceiling * RATE_TOLERANCE:
                    violations.append(
                        f"{link.name}: {rate:.6g} B/s over "
                        f"[{start:.6g}, {end:.6g}] exceeds "
                        f"capacity-in-effect {ceiling:.6g} B/s"
                    )
    return violations


def _callback_label(callback: Callable[..., Any]) -> str:
    qualname = getattr(callback, "__qualname__", "")
    if qualname:
        return qualname
    return getattr(callback, "__name__", repr(callback))


@dataclass
class TieConflict:
    """One same-timestamp group whose members shared a resource."""

    stamp: float
    group_size: int
    resources: List[str]
    callbacks: List[str]

    def to_dict(self) -> Dict[str, object]:
        return {
            "stamp": self.stamp,
            "group_size": self.group_size,
            "resources": list(self.resources),
            "callbacks": list(self.callbacks),
        }


@dataclass
class SanitizerReport:
    """Everything one sanitized run observed."""

    events_observed: int = 0
    #: groups of >= 2 callbacks popped at one timestamp
    tie_groups: int = 0
    events_in_ties: int = 0
    #: tie groups where >= 2 members touched one shared resource
    conflict_groups: int = 0
    conflicts: List[TieConflict] = field(default_factory=list)
    capacity_violations: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.conflict_groups == 0 and not self.capacity_violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "events_observed": self.events_observed,
            "tie_groups": self.tie_groups,
            "events_in_ties": self.events_in_ties,
            "conflict_groups": self.conflict_groups,
            "conflicts": [c.to_dict() for c in self.conflicts],
            "capacity_violations": list(self.capacity_violations),
            "clean": self.clean,
        }


class _CallbackRecord:
    """One popped callback and the resources it touched."""

    __slots__ = ("seq", "label", "touched")

    def __init__(self, seq: int, label: str) -> None:
        self.seq = seq
        self.label = label
        self.touched: List[str] = []  # ordered, deduped on append


class ScheduleSanitizer:
    """Attach to an :class:`~repro.sim.engine.Engine` and observe ties.

    The engine calls :meth:`begin_callback`/:meth:`end_callback` around
    every popped callback; instrumented subsystems report shared-resource
    touches through :meth:`Engine.note_touch`.  Call :meth:`finalize`
    after the run (optionally with the cluster, to audit the ledgers).
    """

    def __init__(self, engine: Engine) -> None:
        engine.sanitizer = self
        self.engine = engine
        self.report = SanitizerReport()
        self._group_stamp: Optional[float] = None
        self._group: List[_CallbackRecord] = []
        self._current: Optional[_CallbackRecord] = None

    # -- engine hooks -------------------------------------------------------
    def begin_callback(self, stamp: float, seq: int,
                       callback: Callable[..., Any]) -> None:
        if self._group_stamp is None or stamp != self._group_stamp:
            self._close_group()
            self._group_stamp = stamp
        self._current = _CallbackRecord(seq, _callback_label(callback))
        self._group.append(self._current)
        self.report.events_observed += 1

    def end_callback(self) -> None:
        self._current = None

    def touch(self, resource: str) -> None:
        current = self._current
        if current is not None and resource not in current.touched:
            current.touched.append(resource)

    # -- grouping -----------------------------------------------------------
    def _close_group(self) -> None:
        group, self._group = self._group, []
        if len(group) < 2:
            return
        self.report.tie_groups += 1
        self.report.events_in_ties += len(group)
        contested: Dict[str, int] = {}
        for record in group:
            for resource in record.touched:
                contested[resource] = contested.get(resource, 0) + 1
        shared = sorted(r for r, hits in contested.items() if hits >= 2)
        if not shared:
            return
        self.report.conflict_groups += 1
        if len(self.report.conflicts) < MAX_RECORDED_CONFLICTS:
            assert self._group_stamp is not None
            self.report.conflicts.append(TieConflict(
                stamp=self._group_stamp,
                group_size=len(group),
                resources=shared,
                callbacks=[r.label for r in group],
            ))

    # -- post-run ------------------------------------------------------------
    def finalize(self, cluster: Any = None) -> SanitizerReport:
        """Close the trailing tie group, audit the cluster's ledgers if
        given (``DET110``), and return the report."""
        self._close_group()
        self._group_stamp = None
        if cluster is not None:
            self.report.capacity_violations.extend(
                ledger_capacity_violations(cluster))
        return self.report
