"""Interprocedural dimensional analysis (``DIM0xx``) over the simulator.

Every headline number this reproduction emits is a byte count, a
duration, or a bandwidth, so a silent unit slip (GB vs GiB, ms vs s,
bytes vs bytes/s) corrupts a figure without failing a test.  This
package is a flow-sensitive abstract interpreter over the stdlib
:mod:`ast` that assigns a *dimension* — ``bytes``, ``s``, ``bytes/s``,
``flops``, ``flops/s``, ``dimensionless``, or ``unknown`` — to every
expression and propagates it through assignments, arithmetic, calls,
and returns:

* multiplication/division compose dimensions (``bytes / s = bytes/s``);
* addition/subtraction/comparison require *equal* dimensions;
* calls check arguments against unit-annotated signatures and known
  sink contracts (ledger charges, event durations, counter tracks).

The lattice is seeded from three places:

* the stub registry for :mod:`repro.units` (``GB``/``GIB``/``MS``
  constants, ``gbps``/``to_gbps``-style converters) —
  :mod:`~repro.analysis.dimensions.stubs`;
* lightweight unit annotations (``Bytes``, ``Seconds``, ...) on hot
  signatures across :mod:`repro.sim`, :mod:`repro.model`,
  :mod:`repro.hardware`, and :mod:`repro.collectives`;
* inferred return dimensions, computed to a fixpoint so unannotated
  helpers still carry dimensions across call boundaries.

Findings are ``DIM0xx`` codes under the ``dims`` pass family, run by
``repro analyze --dims`` (see :mod:`~repro.analysis.dimensions.passes`
for the catalog).
"""

from .lattice import (
    BYTES,
    BYTES_PER_S,
    DIMENSIONLESS,
    FLOPS,
    FLOPS_PER_S,
    TIME,
    UNKNOWN,
    Dim,
)
from .engine import UnitsProgram, UnitSignature, analyze_tree
from .stubs import (
    ANNOTATION_DIMS,
    COUNTER_UNITS,
    SINK_CONTRACTS,
    UNITS_CONSTANTS,
    UNITS_FUNCTIONS,
    annotation_dim,
)
from . import passes as _passes  # noqa: F401  (registers the DIM passes)

__all__ = [
    "ANNOTATION_DIMS",
    "BYTES",
    "BYTES_PER_S",
    "COUNTER_UNITS",
    "DIMENSIONLESS",
    "Dim",
    "FLOPS",
    "FLOPS_PER_S",
    "SINK_CONTRACTS",
    "TIME",
    "UNITS_CONSTANTS",
    "UNITS_FUNCTIONS",
    "UNKNOWN",
    "UnitSignature",
    "UnitsProgram",
    "analyze_tree",
    "annotation_dim",
]
