"""Resource-lifecycle typestate analysis (the ``RES0xx`` pass family).

:mod:`~repro.analysis.lifecycle.protocols` declares the paired
acquire/release APIs under contract; :mod:`~repro.analysis.lifecycle.
engine` is the interprocedural typestate interpreter, a domain of the
shared program core (:mod:`~repro.analysis.program`); :mod:`~repro.
analysis.lifecycle.passes` registers the ``res-typestate`` pass.  The
runtime counterpart lives in :mod:`repro.sim.leaksan`.
"""

from .engine import LifecycleProgram, LifecycleSummary, analyze_tree
from .protocols import PROTOCOLS, Protocol

__all__ = [
    "LifecycleProgram",
    "LifecycleSummary",
    "analyze_tree",
    "PROTOCOLS",
    "Protocol",
]
