"""The resource-protocol table the lifecycle analysis tracks.

A *protocol* is a paired acquire/release API whose balance must close to
zero: every acquire must be matched by exactly one release, or the
simulator's steady-state accounting drifts (leaked ledger reservations
inflate outstanding bytes; leaked pool labels distort the memory
telemetry; an unreleased cache lock wedges every later writer).

Two handle *shapes* exist:

* ``token`` — the acquire call **returns** the handle
  (``r = ledger.reserve(n)``) and the release call **consumes** it
  (``ledger.settle(r)``).  Identity is the value, so the typestate
  engine follows the variable binding through assignments, calls,
  branches, and generator ``yield``\\ s.
* ``label`` — the acquire call **names** the handle with its first
  argument (``pool.allocate("params", n)``) and the release call names
  it again (``pool.free("params")``).  Identity is the
  ``(receiver, label)`` pair; only literal labels are tracked (a
  computed label is not provably matchable, and the engine never
  guesses).

Each protocol may also declare *context acquires* — ``with``-statement
helpers (``pool.lease``, ``ledger.reserving``, ``cache.locked``) that
release structurally on block exit, so handles they produce are correct
by construction and never flagged.

Two further paired protocols are **runtime-tracked only** (entries with
``static=False``): the flow-network register/epoch pair
(``FlowNetwork._flows`` insert on activation, removal in
``_reallocate``) and the trace span open/close pair
(``TraceRecorder.flow_opened``/``flow_closed`` +
``drain_open_flows``).  Their handles are born inside the engine's
event callbacks, where static per-function reasoning has no leverage;
the runtime :class:`~repro.sim.leaksan.LeakSanitizer` audits them
instead (open flows and undrained spans at teardown), and the
cross-validation report joins both views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

#: positional-argument count window ``(min, max)`` a call must fall in
#: for the method name to be treated as a protocol verb.  This is what
#: keeps ``FlowNetwork.settle()`` (zero args — a time-accounting flush)
#: from colliding with ``BandwidthLedger.settle(reservation)``.
Arity = Tuple[int, int]


@dataclass(frozen=True)
class Protocol:
    """One paired-resource API the typestate engine enforces."""

    name: str
    #: "token" or "label" (see module docstring)
    shape: str
    #: acquire method name -> positional-arity window
    acquires: Mapping[str, Arity]
    #: release method name -> positional-arity window
    releases: Mapping[str, Arity]
    #: ``with``-statement acquire helpers (structurally released)
    context_acquires: Tuple[str, ...] = ()
    #: class names whose constructor makes a receiver *local* — a pool
    #: built inside a function dies with it, so unreleased labels on it
    #: are not leaks, but releasing a never-acquired label on it is
    #: provably wrong (RES005)
    constructors: Tuple[str, ...] = ()
    #: keyword arguments that opt a release call out of strict matching
    #: (``pool.free(label, missing_ok=True)`` is documented idempotent
    #: teardown, not a double-free)
    lenient_keywords: Tuple[str, ...] = ()
    #: False for protocols audited by the runtime leak sanitizer only
    static: bool = True
    #: human description for reports and docs
    description: str = ""


PROTOCOLS: Tuple[Protocol, ...] = (
    Protocol(
        name="memory-pool",
        shape="label",
        acquires={"allocate": (2, 2)},
        releases={"free": (1, 1)},
        context_acquires=("lease",),
        constructors=("MemoryPool",),
        lenient_keywords=("missing_ok",),
        description="MemoryPool.allocate/free byte accounting "
                    "(hardware/devices.py)",
    ),
    Protocol(
        name="ledger-reservation",
        shape="token",
        acquires={"reserve": (1, 1)},
        releases={"settle": (1, 1), "cancel": (1, 1)},
        context_acquires=("reserving",),
        constructors=("BandwidthLedger",),
        description="BandwidthLedger reserve/settle byte claims "
                    "(hardware/link.py)",
    ),
    Protocol(
        name="cache-lock",
        shape="token",
        acquires={"lock": (1, 1)},
        releases={"unlock": (1, 1)},
        context_acquires=("locked",),
        constructors=("ResultCache",),
        description="ResultCache advisory object locks "
                    "(campaign/cache.py)",
    ),
    Protocol(
        name="flow-epoch",
        shape="token",
        acquires={},
        releases={},
        static=False,
        description="FlowNetwork flow registration: activated flows must "
                    "leave _flows via _reallocate (sim/flows.py); "
                    "runtime-audited as open flows at teardown",
    ),
    Protocol(
        name="trace-span",
        shape="token",
        acquires={},
        releases={},
        static=False,
        description="TraceRecorder span open/close: flow_opened must "
                    "pair with flow_closed or drain_open_flows "
                    "(trace/recorder.py); runtime-audited as undrained "
                    "spans at teardown",
    ),
)

#: the statically-enforced subset
STATIC_PROTOCOLS: Tuple[Protocol, ...] = tuple(
    p for p in PROTOCOLS if p.static
)


def _index(attr: str) -> Dict[str, Protocol]:
    table: Dict[str, Protocol] = {}
    for protocol in STATIC_PROTOCOLS:
        for method in getattr(protocol, attr):
            if method in table:  # pragma: no cover - table invariant
                raise ValueError(
                    f"protocol method {method!r} claimed twice"
                )
            table[method] = protocol
    return table


#: method name -> protocol, for each verb class
ACQUIRE_METHODS: Dict[str, Protocol] = _index("acquires")
RELEASE_METHODS: Dict[str, Protocol] = _index("releases")
CONTEXT_METHODS: Dict[str, Protocol] = _index("context_acquires")

#: constructor class name -> protocol (local-receiver detection)
CONSTRUCTORS: Dict[str, Protocol] = {
    cls: protocol
    for protocol in STATIC_PROTOCOLS
    for cls in protocol.constructors
}

#: builtins through which a released token may flow without being a
#: "use": rendering and introspection, not resource access
SAFE_TOKEN_SINKS = frozenset({
    "print", "repr", "str", "len", "format", "bool", "id", "isinstance",
    "type",
})
