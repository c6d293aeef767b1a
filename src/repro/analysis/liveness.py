"""DES liveness diagnostics: name the process that deadlocked.

A discrete-event run that drains its queue while named processes are
still pending is deadlocked — some process yielded a :class:`SimEvent`
nobody triggers, or an :class:`AllOf` with children that can never fire.
The stock failure mode is a silent short run (the executor returns early
with too-small iteration times); these diagnostics turn it into an error
naming the stalled :class:`~repro.sim.engine.Process` and describing what
it is waiting on, using the ``waiting_on`` breadcrumbs the engine keeps.

Relies on :class:`~repro.sim.engine.AnyOf` detaching its callbacks from
losing children once triggered: without that cleanup, an event that lost
a race still carries waiter callbacks and would be reported as awaited.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import SimulationError
from ..sim.engine import AllOf, AnyOf, BaseEvent, Engine, Process, SimEvent, Timeout
from ..sim.flows import Launch
from .findings import Finding, Severity
from .registry import claim_codes

claim_codes("des-liveness", ("LIVE001",))


def describe_wait(event: Optional[BaseEvent]) -> str:
    """Human-readable description of what a stalled process awaits."""
    if event is None:
        return "nothing (stalled before its first yield)"
    if isinstance(event, Process):
        return f"process {event.name!r}, itself unfinished"
    if isinstance(event, AllOf):
        pending = event.pending_children
        inner = "; ".join(describe_wait(child) for child in pending[:3])
        return (
            f"an AllOf with {len(pending)}/{event.num_children} children "
            f"pending ({inner})"
        )
    if isinstance(event, AnyOf):
        return f"an AnyOf of {event.num_children} events, none fired"
    if isinstance(event, Timeout):
        return f"a Timeout of {event.delay}s that never fired"
    if isinstance(event, Launch):
        hold = "hold pending" if event.holding else "hold elapsed"
        return (f"a flow launch {event.label!r} with "
                f"{event.pending - event.holding} of {event.size} "
                f"transfers unfinished ({hold})")
    if isinstance(event, SimEvent):
        return "a SimEvent that was never triggered"
    return f"an untriggered {type(event).__name__}"


def diagnose(engine: Engine) -> List[Finding]:
    """Findings for every process left pending after the queue drained.

    Only meaningful on a fully drained engine: with callbacks still
    queued, pending processes are simply *not finished yet*, so an
    undrained engine yields no findings.
    """
    if engine.peek() is not None:
        return []
    findings = []
    for process in engine.processes:
        findings.append(Finding(
            "des-liveness", Severity.ERROR, "LIVE001",
            f"process {process.name!r} never finished: the event queue "
            f"drained while it was waiting on "
            f"{describe_wait(process.waiting_on)}",
            subject=process.name,
        ))
    return findings


def check_liveness(engine: Engine) -> None:
    """Raise :class:`SimulationError` if the drained engine deadlocked."""
    findings = diagnose(engine)
    if findings:
        stalled = ", ".join(f.subject for f in findings)
        raise SimulationError(
            f"simulation deadlocked; stalled processes: {stalled}. "
            + " ".join(f.message for f in findings[:3])
        )
