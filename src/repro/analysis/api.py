"""Public entry points for the static-analysis subsystem.

* :func:`run_passes` — run registered passes over an
  :class:`~repro.analysis.context.AnalysisContext`;
* :func:`analyze_run_config` — convenience wrapper building the context
  from the same arguments :func:`repro.core.runner.run_training` takes;
  with ``cheap_only=True`` this is exactly the pre-run hook;
* :func:`analyze_source` — the ``source`` family (unit hygiene plus the
  ``DET0xx`` determinism lints) over a source tree
  (``repro analyze --self``);
* :func:`analyze_dimensions` — the ``dims`` family (the interprocedural
  dimensional analysis, ``DIM0xx``) over a source tree
  (``repro analyze --dims``).

Importing this module registers every built-in pass.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Union

from ..errors import ReproError
from ..faults.plan import FaultPlan
from ..hardware.cluster import Cluster
from ..model.config import ModelConfig, TrainingConfig
from ..parallel.placement import PlacementConfig
from ..parallel.strategy import TrainingStrategy
from .context import AnalysisContext
from .findings import Finding, Report, Severity
from .registry import claim_codes, iter_passes
from . import config_lints as _config_lints    # noqa: F401  (registers passes)
from . import fault_lints as _fault_lints      # noqa: F401  (registers passes)
from . import topology_lints as _topology_lints  # noqa: F401  (registers passes)
from . import source_lints as _source_lints    # noqa: F401  (registers passes)
from .determinism import det_lints as _det_lints  # noqa: F401  (registers passes)
from . import cluster_lints as _cluster_lints  # noqa: F401  (registers passes)
from .dimensions import passes as _dim_passes  # noqa: F401  (registers passes)
from .program import DEFAULT_SOURCE_ROOT

#: The CFG000 probe-error wrapper below is a reporter of its own.
claim_codes("run-passes", ("CFG000",))


def run_passes(ctx: AnalysisContext,
               families: Optional[Iterable[str]] = None, *,
               cheap_only: bool = False) -> Report:
    """Run every matching registered pass, collecting findings.

    A pass that raises a :class:`~repro.errors.ReproError` while probing
    (e.g. a strategy whose ``memory_plan`` rejects the cluster outright)
    contributes that error as an ERROR finding instead of aborting the
    whole analysis.
    """
    report = Report()
    for analysis_pass in iter_passes(families, cheap_only=cheap_only):
        try:
            findings = analysis_pass.run(ctx)
        except ReproError as error:
            findings = [Finding(
                analysis_pass.name, Severity.ERROR, "CFG000",
                f"configuration rejected while probing: {error}",
            )]
        report.passes_run.append(analysis_pass.name)
        report.extend(findings)
    return report


def analyze_run_config(cluster: Cluster,
                       strategy: Optional[TrainingStrategy] = None,
                       model: Optional[ModelConfig] = None, *,
                       training: Optional[TrainingConfig] = None,
                       placement: Optional[PlacementConfig] = None,
                       tensor_parallel: Optional[int] = None,
                       pipeline_parallel: Optional[int] = None,
                       fault_plan: Optional[FaultPlan] = None,
                       cheap_only: bool = False) -> Report:
    """Statically analyze one run configuration (config/topology/faults).

    ``cheap_only=True`` restricts to the passes safe on every run — the
    set :func:`repro.core.runner.run_training` applies automatically.  The
    full set additionally includes the static memory-capacity prediction,
    which deliberately stays out of the hook so the max-model-size search
    keeps its :class:`~repro.errors.OutOfMemoryError` backoff semantics.
    """
    ctx = AnalysisContext(
        cluster=cluster, strategy=strategy, model=model, training=training,
        placement=placement, tensor_parallel=tensor_parallel,
        pipeline_parallel=pipeline_parallel, fault_plan=fault_plan,
    )
    return run_passes(ctx, ("config", "topology", "faults"),
                      cheap_only=cheap_only)


def analyze_source(root: Union[str, Path, None] = None) -> Report:
    """Run the ``source`` passes over ``root`` (default: ``src/repro``).

    Covers unit hygiene (``SRC00x``) and the determinism hazard lints
    (``DET0xx``); no cluster is involved.
    """
    tree_root = Path(root) if root is not None else DEFAULT_SOURCE_ROOT
    ctx = AnalysisContext(source_root=tree_root)
    return run_passes(ctx, ("source",))


def analyze_dimensions(root: Union[str, Path, None] = None) -> Report:
    """Run the ``dims`` passes over ``root`` (default: ``src/repro``).

    Covers the flow-sensitive dimensional analysis (``DIM001``-``DIM006``)
    and the unit-vocabulary lints (``DIM010``/``DIM011``); no cluster is
    involved.
    """
    tree_root = Path(root) if root is not None else DEFAULT_SOURCE_ROOT
    ctx = AnalysisContext(source_root=tree_root)
    return run_passes(ctx, ("dims",))
