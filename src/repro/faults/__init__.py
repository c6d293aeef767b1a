"""Deterministic fault injection and degraded-fabric simulation.

Public surface:

* :class:`FaultKind` / :class:`FaultEvent` — the fault taxonomy;
* :class:`FaultPlan` — a declarative, seed-reproducible schedule
  (:meth:`FaultPlan.parse` understands the CLI's compact spec strings);
* :class:`FaultInjector` — applies a plan to a live engine/network pair
  through the engine's run-start hook;
* :func:`resolve_target` — target resolution (the ``fault-plan``
  analysis pass, :mod:`repro.analysis.fault_lints`, reports a plan's
  unresolvable targets and horizon overruns without raising);
* :func:`degradation_report` — faulted-vs-baseline run comparison.
"""

from .events import LINK_KINDS, FaultEvent, FaultKind
from .injector import (
    FaultInjector,
    ResolvedTarget,
    resolve_target,
)
from .plan import FaultPlan, parse_fault_spec, parse_time
from .report import degradation_report

__all__ = [
    "LINK_KINDS",
    "FaultEvent",
    "FaultKind",
    "FaultInjector",
    "FaultPlan",
    "ResolvedTarget",
    "degradation_report",
    "parse_fault_spec",
    "parse_time",
    "resolve_target",
]
