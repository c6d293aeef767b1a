"""Declarative campaign specs and their expansion into jobs.

A :class:`CampaignSpec` names *what* to reproduce — experiment ids plus
an optional strategy x model-size x node-count sweep, cluster scenarios
and serving runs — and :meth:`CampaignSpec.expand` materializes it into
an ordered list of :class:`Job`\\ s, each wrapping one canonical spec
whose class is the job's kind in :data:`SPEC_KINDS`
(:class:`~repro.experiments.common.ExperimentSpec`,
:class:`~repro.api.RunSpec`, :class:`~repro.cluster.scenario.
ClusterScenario` or :class:`~repro.inference.InferenceSpec`).  A
``CampaignSpec`` has the :class:`repro.api.spec.Spec` codec, so
:func:`load_campaign` decodes a ``--spec`` file, nested cluster and
inference entries included, through ``from_dict``.  Expansion order is a
pure function of the spec (experiments first, then the sweep in listed
order), so a campaign enumerates — and reports — identically no matter
how many workers execute it or in which order they finish.

Jobs are independent: the dependency graph is the trivial DAG, which is
what makes the worker pool safe.  The one in-repo exception (``fig8``
re-deriving from ``fig7``) is internal to the experiment module and
invisible at this layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple, Type, Union

from ..api.spec import RunSpec, Spec
from ..cluster.scenario import ClusterScenario
from ..errors import ConfigurationError
from ..experiments.common import ExperimentSpec
from ..inference.spec import InferenceSpec

JobSpec = Union[ExperimentSpec, RunSpec, ClusterScenario, InferenceSpec]

#: The campaign job kinds: each spec class under its ``KIND``.
SPEC_KINDS: Dict[str, Type[Spec]] = {
    cls.KIND: cls
    for cls in (ExperimentSpec, RunSpec, ClusterScenario, InferenceSpec)
}


@dataclass(frozen=True)
class Job:
    """One unit of campaign work: a canonical spec plus a stable id."""

    job_id: str
    spec: JobSpec

    @property
    def kind(self) -> str:
        return type(self.spec).KIND

    def cache_key(self, *, salt: str = None) -> str:
        return self.spec.cache_key(salt=salt)

    def to_payload(self) -> Dict[str, object]:
        """A picklable/JSON-safe form (what crosses the worker boundary)."""
        return {"job_id": self.job_id, "kind": self.kind,
                "spec": self.spec.to_dict()}


@dataclass(frozen=True)
class CampaignSpec(Spec):
    """A declarative sweep: experiments plus a training-run grid.

    ``experiments`` run through the registry at the quick or ``full``
    profile; the cross product ``strategies x sizes_billions x nodes``
    becomes one :class:`~repro.api.RunSpec` job per cell.  Either side
    may be empty, but not both.
    """

    name: str = "campaign"
    experiments: Tuple[str, ...] = ()
    strategies: Tuple[str, ...] = ()
    sizes_billions: Tuple[float, ...] = ()
    nodes: Tuple[int, ...] = (1,)
    placement: str = "B"
    iterations: int = 3
    warmup_iterations: int = 1
    full: bool = False
    #: cluster-service scenarios to run alongside the training sweep
    clusters: Tuple[ClusterScenario, ...] = ()
    #: inference serving runs to score alongside
    inference: Tuple[InferenceSpec, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.name:
            raise ConfigurationError("campaign needs a name")
        if (not self.experiments and not self.strategies
                and not self.clusters and not self.inference):
            raise ConfigurationError(
                "campaign is empty: list experiments, strategies, "
                "clusters, and/or inference"
            )
        if self.strategies and not self.sizes_billions:
            raise ConfigurationError(
                "campaign sweeps strategies but lists no sizes_billions"
            )

    def expand(self) -> List[Job]:
        """The campaign's jobs, in canonical (deterministic) order."""
        from ..experiments.registry import spec_for

        jobs: List[Job] = []
        for experiment_id in self.experiments:
            spec = spec_for(experiment_id, quick=not self.full)
            jobs.append(Job(f"experiment/{experiment_id}", spec))
        for strategy in self.strategies:
            for size in self.sizes_billions:
                for num_nodes in self.nodes:
                    spec = RunSpec(
                        strategy=strategy,
                        size_billions=size,
                        nodes=num_nodes,
                        placement=self.placement,
                        iterations=self.iterations,
                        warmup_iterations=self.warmup_iterations,
                    )
                    jobs.append(Job(f"run/{spec.label}", spec))
        for scenario in self.clusters:
            jobs.append(Job(f"cluster/{scenario.label}", scenario))
        for spec in self.inference:
            jobs.append(Job(f"inference/{spec.label}", spec))
        seen: Dict[str, int] = {}
        for job in jobs:
            seen[job.job_id] = seen.get(job.job_id, 0) + 1
        duplicates = sorted(k for k, n in seen.items() if n > 1)
        if duplicates:
            raise ConfigurationError(
                f"campaign expands to duplicate jobs: {duplicates}"
            )
        return jobs


def load_campaign(path: Union[str, Path]) -> CampaignSpec:
    """Read a campaign spec from a JSON file, with clean error rendering."""
    target = Path(path)
    try:
        text = target.read_text()
    except OSError as error:
        raise ConfigurationError(
            f"cannot read campaign spec {target}: {error}"
        ) from error
    try:
        payload = json.loads(text)
    except ValueError as error:
        raise ConfigurationError(
            f"campaign spec {target} is not valid JSON: {error}"
        ) from error
    return CampaignSpec.from_dict(payload)
