"""The resource-protocol table the lifecycle analysis tracks.

A *protocol* is a paired acquire/release API whose balance must close to
zero: every acquire must be matched by exactly one release, or the
simulator's steady-state accounting drifts (leaked pool labels distort
the memory telemetry; an unreleased cache lock wedges every later
writer).

Two handle *shapes* exist:

* ``token`` — the acquire call **returns** the handle
  (``lock = cache.lock(key)``) and the release call **consumes** it
  (``cache.unlock(lock)``).  Identity is the value, so the typestate
  engine follows the variable binding through assignments, calls,
  branches, and generator ``yield``\\ s.
* ``label`` — the acquire call **names** the handle with its first
  argument (``pool.allocate("params", n)``) and the release call names
  it again (``pool.free("params")``).  Identity is the
  ``(receiver, label)`` pair; only literal labels are tracked (a
  computed label is not provably matchable, and the engine never
  guesses).

Each protocol may also declare *context acquires* — ``with``-statement
helpers (``pool.lease``, ``cache.locked``) that release structurally on
block exit, so handles they produce are correct by construction and
never flagged.

Pool labels are also audited at run time: a leak-checked run reports
every label still holding bytes at teardown
(:func:`repro.sim.leaksan.audit_leaks`), and the cross-validation report
joins both views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

#: positional-argument count window ``(min, max)`` a call must fall in
#: for the method name to be treated as a protocol verb.  This is what
#: keeps a zero-argument ``unlock()`` (the standard library's
#: ``mailbox.Mailbox.unlock``) from colliding with
#: ``ResultCache.unlock(lock)``.
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
        name="cache-lock",
        shape="token",
        acquires={"lock": (1, 1)},
        releases={"unlock": (1, 1)},
        context_acquires=("locked",),
        constructors=("ResultCache",),
        description="ResultCache advisory object locks "
                    "(campaign/cache.py)",
    ),
)


def _index(attr: str) -> Dict[str, Protocol]:
    table: Dict[str, Protocol] = {}
    for protocol in PROTOCOLS:
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
    for protocol in PROTOCOLS
    for cls in protocol.constructors
}

#: builtins through which a released token may flow without being a
#: "use": rendering and introspection, not resource access
SAFE_TOKEN_SINKS = frozenset({
    "print", "repr", "str", "len", "format", "bool", "id", "isinstance",
    "type",
})
