"""Canonical serializable cluster scenarios (the RunSpec analog).

A :class:`ClusterScenario` pins everything a cluster-service run depends
on — fabric size, scheduling policy, the arrival profile (seeded
Poisson parameters or an explicit trace), aging rate, tie order, and
the observability flags.  Its codec and cache key come from
:class:`repro.api.spec.Spec` under ``KIND = "cluster"``, so campaigns
sweep and cache cluster runs exactly like training runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..api.spec import TIE_ORDERS, Spec
from ..errors import ConfigurationError
from .arrivals import JOB_MIXES, Arrival, poisson_arrivals, trace_arrivals
from .daemon import POLICIES


@dataclass(frozen=True)
class ClusterScenario(Spec):
    """One cluster-service run, as pure serializable data.

    ``arrivals`` selects the profile: ``"poisson"`` generates
    ``num_jobs`` seeded arrivals at ``rate_per_hour`` from ``mix``;
    ``"trace"`` replays ``trace_jobs`` (tuples of JSON-safe job dicts
    with a ``time`` field) verbatim.
    """

    KIND = "cluster"

    name: str = "cluster"
    nodes: int = 4
    policy: str = "fifo"
    arrivals: str = "poisson"
    rate_per_hour: float = 1200.0
    num_jobs: int = 12
    arrival_seed: int = 7
    mix: str = "default"
    trace_jobs: Tuple[Dict[str, object], ...] = ()
    #: effective priority grows by this per queued second (0 = no aging)
    aging_rate: float = 0.0
    tie_order: str = "fifo"
    tie_seed: int = 7
    leak_check: bool = False
    trace: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.name:
            raise ConfigurationError("scenario needs a name")
        if self.nodes < 1:
            raise ConfigurationError("nodes must be >= 1")
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r} "
                f"(expected one of {POLICIES})"
            )
        if self.arrivals not in ("poisson", "trace"):
            raise ConfigurationError(
                f"unknown arrival profile {self.arrivals!r} "
                f"(expected 'poisson' or 'trace')"
            )
        if self.arrivals == "poisson":
            if self.rate_per_hour <= 0:
                raise ConfigurationError("rate_per_hour must be positive")
            if self.num_jobs < 1:
                raise ConfigurationError("num_jobs must be >= 1")
            if self.mix not in JOB_MIXES:
                raise ConfigurationError(
                    f"unknown job mix {self.mix!r}; "
                    f"known: {sorted(JOB_MIXES)}"
                )
        elif not self.trace_jobs:
            raise ConfigurationError(
                "trace arrivals need at least one trace_jobs entry"
            )
        if self.aging_rate < 0:
            raise ConfigurationError("aging_rate must be >= 0")
        if self.tie_order not in TIE_ORDERS:
            raise ConfigurationError(
                f"unknown tie order {self.tie_order!r} "
                f"(expected one of {TIE_ORDERS})"
            )

    def expand_arrivals(self) -> List[Arrival]:
        """The scenario's concrete arrival stream, deterministically."""
        if self.arrivals == "poisson":
            return poisson_arrivals(self.rate_per_hour, self.num_jobs,
                                    seed=self.arrival_seed, mix=self.mix)
        return trace_arrivals(self.trace_jobs)

    @property
    def label(self) -> str:
        """A short human-readable identity, used for campaign job ids."""
        profile = (f"p{self.rate_per_hour:g}x{self.num_jobs}"
                   if self.arrivals == "poisson"
                   else f"t{len(self.trace_jobs)}")
        return f"{self.name}-{self.policy}-n{self.nodes}-{profile}"

    def run(self):
        """Simulate this scenario (see :func:`repro.cluster.run_cluster`)."""
        from .service import run_cluster

        return run_cluster(self)
