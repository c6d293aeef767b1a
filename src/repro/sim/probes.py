"""One way to attach a run's instruments: build, attach, close.

Every simulated run gets its engine, its flow network and its opt-in
instruments from one :class:`RunProbes`: training runs
(:func:`repro.core.runner.run_training`), cluster-service runs
(:func:`repro.cluster.service.run_cluster`) and serving runs
(:func:`repro.inference.service.run_inference`) alike.  In order, it
builds

* the :class:`~repro.sim.engine.Engine` with the run's tie order, plus
  the :class:`~repro.sim.sanitizer.ScheduleSanitizer` in the engine's
  one ``sanitizer`` slot when asked (event folding stops exactly when a
  callback observer is attached);
* the :class:`~repro.sim.flows.FlowNetwork`, whose ``observers`` tuple
  gets the :class:`~repro.trace.recorder.TraceRecorder` when asked.

:meth:`RunProbes.close` finalizes the schedule sanitizer and, for a
leak-checked run, audits the pools and the network for what is still
held (:func:`~repro.sim.leaksan.audit_leaks`); it returns both reports.
Leaving the ``with`` block removes every hook the probes set, on error
paths too, so a later run on the same cluster cannot write into an
earlier run's report.  Every instrument only appends to its own
bookkeeping, so attaching any of them leaves the simulated schedule
unchanged.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..trace.recorder import TraceRecorder
from .engine import Engine, ReversedTies, SeededTies, TieOrder
from .flows import FlowNetwork
from .leaksan import LeakReport, audit_leaks
from .sanitizer import SanitizerReport, ScheduleSanitizer


def named_tie_order(name: str, seed: int) -> Optional[TieOrder]:
    """The engine tie order a spec's ``tie_order`` name selects."""
    if name == "reversed":
        return ReversedTies()
    if name == "seeded":
        return SeededTies(seed)
    return None  # fifo: the engine default


class RunProbes:
    """The engine, flow network and opt-in instruments of one run."""

    def __init__(self, cluster: Any, *,
                 tie_order: Optional[TieOrder] = None,
                 sanitize: bool = False,
                 trace: bool = False,
                 leak_check: bool = False) -> None:
        self.cluster = cluster
        self.leak_check = leak_check
        self.engine = Engine(tie_order=tie_order)
        self.sanitizer = ScheduleSanitizer(self.engine) if sanitize else None
        self.network = FlowNetwork(self.engine)
        self.recorder = TraceRecorder(self.network) if trace else None
        if self.recorder is not None:
            self.network.observers = (self.recorder,)

    def __enter__(self) -> "RunProbes":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    def close(self) -> Tuple[Optional[SanitizerReport],
                             Optional[LeakReport]]:
        """Finalize the sanitizer, audit for leaks and detach every hook.

        Call it once the run has released what it legitimately holds:
        whatever the leak audit still finds outstanding is a leak.
        If finalizing raises, leaving the ``with`` block still detaches.
        """
        sanitized = (self.sanitizer.finalize(self.cluster)
                     if self.sanitizer is not None else None)
        leaks = (audit_leaks(self.cluster, self.network)
                 if self.leak_check else None)
        self.detach()
        return sanitized, leaks

    def detach(self) -> None:
        """Remove every hook these probes set (idempotent)."""
        self.engine.sanitizer = None
        self.network.observers = ()
