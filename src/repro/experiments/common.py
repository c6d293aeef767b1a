"""Shared plumbing for the per-figure/table experiment modules.

Every experiment exposes the uniform parameterized entry point
``run(spec: ExperimentSpec | None) -> ExperimentResult`` with structured
rows plus an ASCII rendering; the benchmark harness executes them and
the EXPERIMENTS.md generator compares their rows against
:mod:`repro.experiments.paper_data`.

:class:`ExperimentSpec` makes the old per-module ``quick`` conventions
explicit, serializable fields (simulated iterations, stress duration,
sweep extent), so the registry's ``run_experiment`` and the campaign
runner (:mod:`repro.campaign`) share one code path and experiment
results are cache-keyed exactly like :class:`~repro.api.RunSpec` runs
(:class:`repro.api.spec.Spec` under ``KIND = "experiment"``).  Modules
with non-default profiles pin them as ``QUICK_SPEC`` / ``FULL_SPEC``
constants next to their ``run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..api.spec import Spec
from ..errors import ConfigurationError
from ..parallel import (
    DdpStrategy,
    MegatronStrategy,
    zero1,
    zero1_cpu_offload,
    zero2,
    zero2_cpu_offload,
    zero3,
    zero3_cpu_param_offload,
    zero3_nvme_optimizer,
    zero3_nvme_optimizer_params,
)
from ..parallel.strategy import TrainingStrategy


@dataclass(frozen=True)
class ExperimentSpec(Spec):
    """Canonical parameters of one experiment-module invocation.

    The experiment analog of :class:`~repro.api.RunSpec`: every knob the
    old ``quick=True/False`` convention used to imply, as explicit
    serializable fields.  ``iterations`` is the simulated optimizer
    steps per configuration, ``duration_s`` the stress-test window, and
    ``full_sweep`` selects the paper-length sweep extents (message
    sizes, node counts, loss grids) over the CI-sized ones.
    """

    KIND = "experiment"

    experiment_id: str
    iterations: int = 3
    warmup_iterations: int = 1
    duration_s: float = 2.0
    full_sweep: bool = False
    #: simulation fidelity for every training run the module performs
    #: ("full" or "hybrid"; see :mod:`repro.sim.fastpath`).  Part of the
    #: cache key, so hybrid results can never shadow full ones.
    fidelity: str = "full"

    def __post_init__(self) -> None:
        from ..sim.fastpath import validate_fidelity

        super().__post_init__()
        if not self.experiment_id:
            raise ConfigurationError("ExperimentSpec needs an experiment id")
        if self.iterations <= self.warmup_iterations:
            raise ConfigurationError(
                "need more iterations than warmup iterations"
            )
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        validate_fidelity(self.fidelity)

    @classmethod
    def quick(cls, experiment_id: str, **overrides: object
              ) -> "ExperimentSpec":
        """The CI-sized profile (the old ``quick=True``)."""
        return cls(experiment_id, **overrides)  # type: ignore[arg-type]

    @classmethod
    def full(cls, experiment_id: str, **overrides: object
             ) -> "ExperimentSpec":
        """The paper-length profile (the old ``quick=False``)."""
        profile: Dict[str, object] = {
            "iterations": 10, "duration_s": 10.0, "full_sweep": True,
        }
        profile.update(overrides)
        return cls(experiment_id, **profile)  # type: ignore[arg-type]

    def for_experiment(self, experiment_id: str) -> "ExperimentSpec":
        """The same profile pointed at another experiment (delegation)."""
        return self.replace(experiment_id=experiment_id)

    def run(self):
        """Run this experiment (see :func:`repro.experiments.run_spec`)."""
        from .registry import run_spec

        return run_spec(self)


@dataclass
class ExperimentResult:
    """Output of one experiment module."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    rendered: str = ""

    def row_by(self, **match: object) -> Dict[str, object]:
        """The first row whose items all equal ``match`` (test helper)."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise KeyError(f"no row matching {match}")


#: Factories for the five core strategies of Section IV, in paper order.
CORE_STRATEGIES: Dict[str, Callable[[], TrainingStrategy]] = {
    "ddp": DdpStrategy,
    "megatron": MegatronStrategy,
    "zero1": zero1,
    "zero2": zero2,
    "zero3": zero3,
}

#: Offload strategies of Section V.
OFFLOAD_STRATEGIES: Dict[str, Callable[[], TrainingStrategy]] = {
    "zero1_opt_cpu": zero1_cpu_offload,
    "zero2_opt_cpu": zero2_cpu_offload,
    "zero3_opt_cpu_param_cpu": zero3_cpu_param_offload,
    "zero3_opt_nvme": zero3_nvme_optimizer,
    "zero3_opt_nvme_param_nvme": zero3_nvme_optimizer_params,
}

ALL_STRATEGIES: Dict[str, Callable[[], TrainingStrategy]] = {
    **CORE_STRATEGIES, **OFFLOAD_STRATEGIES,
}


def make_strategy(name: str) -> TrainingStrategy:
    """The named strategy, freshly constructed: the one name lookup."""
    try:
        factory = ALL_STRATEGIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown strategy {name!r}; known: {sorted(ALL_STRATEGIES)}"
        ) from None
    return factory()
