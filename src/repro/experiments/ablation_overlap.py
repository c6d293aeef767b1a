"""Ablation — communication/computation overlap on/off for ZeRO.

DDP and ZeRO hide gradient collectives behind backward compute via
non-blocking launches; this ablation forces every collective to block,
quantifying how much the overlap buys on each fabric (little on NVLink,
a lot across RoCE).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..api.build import preset_cluster
from ..core.runner import run_training
from ..core.search import model_for_billions
from ..parallel import zero2, zero3
from ..parallel.schedule import CollectiveStep, IterationSchedule
from ..parallel.strategy import StrategyContext, TrainingStrategy
from ..telemetry.report import format_table
from .common import ExperimentResult, ExperimentSpec


class _BlockingWrapper(TrainingStrategy):
    """Wraps a strategy, rewriting every collective as blocking."""

    def __init__(self, inner: TrainingStrategy) -> None:
        super().__init__(inner.calibration)
        self.inner = inner
        self.name = inner.name + "_noverlap"
        self.display_name = inner.display_name + " (no overlap)"
        self.traffic_profile = inner.traffic_profile

    def data_parallel_degree(self, ctx: StrategyContext) -> int:
        return self.inner.data_parallel_degree(ctx)

    def model_parallel_degree(self, ctx: StrategyContext) -> int:
        return self.inner.model_parallel_degree(ctx)

    def memory_plan(self, ctx: StrategyContext):
        return self.inner.memory_plan(ctx)

    def build_schedule(self, ctx: StrategyContext) -> IterationSchedule:
        schedule = self.inner.build_schedule(ctx)
        for rank, steps in schedule.steps_by_rank.items():
            schedule.steps_by_rank[rank] = [
                replace(step, blocking=True)
                if isinstance(step, CollectiveStep) else step
                for step in steps
            ]
        return schedule


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("ablation_overlap")
    iterations = spec.iterations
    rows: List[dict] = []
    for num_nodes, size in ((1, 1.4), (2, 6.0)):
        model = model_for_billions(size)
        for factory in (zero2, zero3):
            for overlap in (True, False):
                cluster = preset_cluster(num_nodes)
                strategy = factory()
                if not overlap:
                    strategy = _BlockingWrapper(strategy)
                metrics = run_training(cluster, strategy, model,
                                       iterations=iterations,
                                       fidelity=spec.fidelity)
                rows.append({
                    "nodes": num_nodes,
                    "model_b": size,
                    "strategy": factory().name,
                    "overlap": overlap,
                    "tflops": metrics.tflops,
                })
    rendered = format_table(
        ["nodes", "model (B)", "strategy", "overlap", "TFLOP/s"],
        [[r["nodes"], r["model_b"], r["strategy"], r["overlap"],
          r["tflops"]] for r in rows],
        title="Ablation — gradient-communication overlap on/off",
    )
    return ExperimentResult("ablation_overlap", "overlap ablation",
                            rows, rendered)
