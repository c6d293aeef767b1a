"""DES fast path: memoized collectives, event batching, hybrid fidelity.

Three independent accelerations, composable and all semantics-preserving
(see DESIGN.md, "Fast path & fidelity"):

* **Collective cost memoization** (:mod:`.memo`) — closed-form collective
  cost evaluations are cached on a key covering everything the cost
  depends on: the collective kind and payload, the participant ranks,
  the topology fingerprint, and the current degradation stamp.  The hot
  DES path gets the same treatment inside
  :class:`~repro.collectives.nccl.NcclCommunicator`, which memoizes each
  collective's *launch plan* (routes, per-link bytes, weights, step
  latency) so repeated launches stop re-walking the ring structure.
* **Homogeneous event batching** (:class:`~repro.sim.engine.BatchHandler`)
  — runs of same-timestamp occurrences of the same handler fold into a
  single dispatch; the flow network uses it to activate all of a
  collective's flows with one settle/reallocate round instead of N.
* **Steady-state extrapolation** (:mod:`.extrapolate`) — opt-in via
  ``fidelity="hybrid"``: simulate warmup + 2 iterations at full
  fidelity, verify the measured iterations are periodic, then replicate
  the last measured iteration analytically for the remaining count.

``fidelity`` is passed explicitly, never taken from ambient state: from
:class:`repro.api.RunSpec` through :func:`repro.api.run_spec`, and from
:class:`repro.experiments.common.ExperimentSpec` through every experiment
module's ``run_training(..., fidelity=spec.fidelity)``, down to
:func:`repro.core.runner.run_training`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ...errors import ConfigurationError

#: Supported run fidelities.  ``full`` simulates every iteration on the
#: DES; ``hybrid`` simulates warmup + 2 measured iterations and
#: extrapolates the rest once steady state is confirmed.
FIDELITIES = ("full", "hybrid")


def validate_fidelity(fidelity: str) -> str:
    if fidelity not in FIDELITIES:
        raise ConfigurationError(
            f"unknown fidelity {fidelity!r} (expected one of {FIDELITIES})"
        )
    return fidelity


@dataclass(frozen=True)
class FastpathReport:
    """What the hybrid fast path actually did for one run.

    ``applied`` is True only when the extrapolator replaced simulated
    iterations with analytic ones.  A hybrid request that could not be
    honoured (fault plan present, too few iterations, steady state not
    detected) still produces full-fidelity results; ``fallback_reason``
    says why the shortcut was declined.
    """

    fidelity: str
    applied: bool
    simulated_iterations: int
    extrapolated_iterations: int
    fallback_reason: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "fidelity": self.fidelity,
            "applied": self.applied,
            "simulated_iterations": self.simulated_iterations,
            "extrapolated_iterations": self.extrapolated_iterations,
            "fallback_reason": self.fallback_reason,
        }


from .memo import (  # noqa: E402  (re-exports after the light definitions)
    COST_CACHE,
    CollectiveCostCache,
    collective_cost_key,
)
from .extrapolate import (  # noqa: E402
    HYBRID_MEASURE_ITERATIONS,
    STEADY_STATE_RTOL,
    extrapolate_execution,
    hybrid_simulated_iterations,
    is_steady,
)

__all__ = [
    "COST_CACHE",
    "CollectiveCostCache",
    "FIDELITIES",
    "FastpathReport",
    "HYBRID_MEASURE_ITERATIONS",
    "STEADY_STATE_RTOL",
    "collective_cost_key",
    "extrapolate_execution",
    "hybrid_simulated_iterations",
    "is_steady",
    "validate_fidelity",
]
