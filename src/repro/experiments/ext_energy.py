"""Extension — energy per iteration and TFLOP-per-kilowatt.

The paper motivates the study with training cost and environmental
impact but never measures power.  This experiment attaches the
utilization-based power model (:mod:`repro.telemetry.energy`) to the
paper's configurations: single- vs dual-node training at maximum model
size, plus the CPU-offload consolidation — quantifying the intuition
that consolidating onto one node does not just raise throughput, it
roughly halves the energy bill for the same model.
"""

from __future__ import annotations

from ..core.runner import run_training
from ..core.search import max_model_size, model_for_billions
from ..model.config import paper_model
from ..parallel import MegatronStrategy, zero2, zero2_cpu_offload, zero3
from ..telemetry.energy import estimate_energy
from ..telemetry.report import format_table
from . import paper_data
from .common import ExperimentResult, ExperimentSpec, cluster_for


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("ext_energy")
    iterations = spec.iterations
    rows = []

    cases = [
        ("zero2@1n", cluster_for(1), zero2(), None),
        ("zero3@2n", cluster_for(2), zero3(), None),
        ("megatron@2n", cluster_for(2), MegatronStrategy(), None),
        ("zero2_opt_cpu@1n", cluster_for(1), zero2_cpu_offload(),
         paper_data.CONSOLIDATION_MODEL_B),
    ]
    for label, cluster, strategy, size_b in cases:
        if size_b is None:
            search = max_model_size(cluster, strategy)
            model = paper_model(search.max_layers)
        else:
            model = model_for_billions(size_b)
        metrics = run_training(cluster, strategy, model,
                               iterations=iterations,
                               fidelity=spec.fidelity)
        report = estimate_energy(cluster, metrics.execution.timeline,
                                 metrics.measurement_window)
        rows.append({
            "config": label,
            "model_b": metrics.billions_of_parameters,
            "tflops": metrics.tflops,
            "avg_power_kw": report.average_power_watts / 1e3,
            "energy_per_iteration_kj":
                report.energy_per_iteration(metrics.iteration_time) / 1e3,
            "tflops_per_kw": report.tflops_per_kilowatt(metrics.tflops),
            "gpu_power_share": (report.by_component["gpu"]
                                / report.average_power_watts),
        })
    rendered = format_table(
        ["config", "model (B)", "TFLOP/s", "avg kW", "kJ/iter",
         "TFLOP/s per kW"],
        [[r["config"], r["model_b"], r["tflops"], r["avg_power_kw"],
          r["energy_per_iteration_kj"], r["tflops_per_kw"]] for r in rows],
        title="Extension — energy accounting",
    )
    return ExperimentResult("ext_energy", "energy accounting extension",
                            rows, rendered)
