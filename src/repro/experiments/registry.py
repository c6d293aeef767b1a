"""Experiment registry: every paper table/figure plus the ablations.

``EXPERIMENTS`` maps an experiment id to its module's ``run`` callable.
:func:`spec_for` materializes the canonical
:class:`~repro.experiments.common.ExperimentSpec` for an id (honouring
per-module ``QUICK_SPEC`` / ``FULL_SPEC`` overrides), :func:`run_spec`
executes one spec, and the campaign runner (:mod:`repro.campaign`)
drives whole sweeps of them through the result cache.

:func:`run_experiment` and :func:`run_all` remain as thin quick/full
shims over the spec path, so existing callers keep working unchanged.
"""

from __future__ import annotations

from types import ModuleType
from typing import Callable, Dict, Iterable, List, Optional

from ..errors import ConfigurationError
from . import (
    ablation_buffers,
    ablation_nvme,
    ablation_overlap,
    ablation_recompute,
    ablation_serdes,
    ext_batch,
    ext_energy,
    ext_faults,
    ext_gpu80,
    ext_hybrid,
    ext_pipeline,
    ext_scaling,
    fig01_trend,
    fig03_latency,
    fig04_stress,
    fig05_timeline,
    fig06_model_size,
    fig07_throughput,
    fig08_tradeoff,
    fig09_nvlink_pattern,
    fig10_dual_pattern,
    fig11_offload,
    fig12_offload_pattern,
    fig13_largest,
    fig14_table6_nvme,
    table1_capability,
    table3_interconnects,
    table4_bandwidth,
    table5_sensitivity,
)
from .common import ExperimentResult, ExperimentSpec

Runner = Callable[[Optional[ExperimentSpec]], ExperimentResult]

_MODULES: Dict[str, ModuleType] = {
    "fig1": fig01_trend,
    "fig3": fig03_latency,
    "fig4": fig04_stress,
    "fig5": fig05_timeline,
    "fig6": fig06_model_size,
    "fig7": fig07_throughput,
    "fig8": fig08_tradeoff,
    "fig9": fig09_nvlink_pattern,
    "fig10": fig10_dual_pattern,
    "fig11": fig11_offload,
    "fig12": fig12_offload_pattern,
    "fig13": fig13_largest,
    "fig14_table6": fig14_table6_nvme,
    "table1": table1_capability,
    "table3": table3_interconnects,
    "table4": table4_bandwidth,
    "table5": table5_sensitivity,
    "ablation_serdes": ablation_serdes,
    "ext_hybrid": ext_hybrid,
    "ext_energy": ext_energy,
    "ext_scaling": ext_scaling,
    "ext_faults": ext_faults,
    "ext_pipeline": ext_pipeline,
    "ablation_overlap": ablation_overlap,
    "ablation_nvme": ablation_nvme,
    "ablation_buffers": ablation_buffers,
    "ablation_recompute": ablation_recompute,
    "ext_batch": ext_batch,
    "ext_gpu80": ext_gpu80,
}

EXPERIMENTS: Dict[str, Runner] = {
    experiment_id: module.run for experiment_id, module in _MODULES.items()
}

#: ids in paper order, excluding ablations.
PAPER_EXPERIMENTS: List[str] = [
    "fig1", "table1", "table3", "fig3", "fig4", "fig5", "fig6", "fig7",
    "fig8", "fig9", "table4", "fig10", "fig11", "fig12", "fig13",
    "table5", "fig14_table6",
]


def _module_for(experiment_id: str) -> ModuleType:
    try:
        return _MODULES[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(_MODULES)}"
        ) from None


def spec_for(experiment_id: str, *, quick: bool = True) -> ExperimentSpec:
    """The canonical spec an id runs with in quick or full mode.

    Modules that deviate from the shared defaults pin ``QUICK_SPEC`` /
    ``FULL_SPEC`` constants next to their ``run``; everything else gets
    :meth:`ExperimentSpec.quick` / :meth:`ExperimentSpec.full`.
    """
    module = _module_for(experiment_id)
    pinned = getattr(module, "QUICK_SPEC" if quick else "FULL_SPEC", None)
    if pinned is not None:
        return pinned
    maker = ExperimentSpec.quick if quick else ExperimentSpec.full
    return maker(experiment_id)


def run_spec(spec: ExperimentSpec) -> ExperimentResult:
    """Execute one experiment spec (the campaign runner's entry point).

    Modules pass ``spec.fidelity`` to every training run they make.
    """
    return _module_for(spec.experiment_id).run(spec)


def run_experiment(experiment_id: str, *, quick: bool = True) -> ExperimentResult:
    return run_spec(spec_for(experiment_id, quick=quick))


def run_all(ids: Iterable[str] = None, *, quick: bool = True
            ) -> List[ExperimentResult]:
    selected = list(ids) if ids is not None else PAPER_EXPERIMENTS
    return [run_experiment(experiment_id, quick=quick)
            for experiment_id in selected]
