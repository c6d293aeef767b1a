"""Schedule-perturbation differ: confirm or refute suspected races.

The sanitizer's tie conflicts are *suspects*: two same-timestamp
callbacks touched one resource, so their ``seq``-decided order *could*
matter.  This module settles the question empirically — the DES analog
of rerunning a multithreaded program under a perturbed scheduler.  It
reruns the same configuration under legal tie-order permutations
(:class:`~repro.sim.engine.ReversedTies` and a seeded shuffle,
:class:`~repro.sim.engine.SeededTies`) and field-diffs the headline
metrics: iteration times, TFLOP/s, and every link ledger's record count
and byte total, compared by the one field rule
(:func:`repro.compare.diff_fields`, floats at six significant figures).
Any divergence is a confirmed schedule race, reported as an ERROR
(``DET120``); equal results refute the suspects for this configuration.

Not imported from ``repro.analysis.__init__``: this module needs
:func:`repro.core.runner.run_training`, which itself imports the
analysis package for its pre-run hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ...api.build import strategy_cluster
from ...compare import MISSING, diff_fields, round_sig  # noqa: F401  (bench imports round_sig here)
from ...core.runner import RunMetrics, run_training
from ...core.search import model_for_billions
from ...experiments.common import make_strategy
from ...hardware.cluster import Cluster
from ...parallel.placement import PLACEMENTS
from ...sim.engine import ReversedTies, SeededTies, TieOrder
from ...sim.sanitizer import SanitizerReport
from ..findings import Finding, Report
from .dynamic import DIFFER_PASS, SANITIZER_PASS, divergence_finding, sanitizer_findings


@dataclass(frozen=True)
class FieldDiff:
    """One headline field that changed under a tie-order perturbation
    (values unrounded; NaN for a side that lacks the field)."""

    field: str
    baseline: object
    perturbed: object
    order: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "field": self.field,
            "baseline": self.baseline,
            "perturbed": self.perturbed,
            "order": self.order,
        }


def diff_headline_runs(
    run_fn: Callable[[TieOrder], Mapping[str, float]], *,
    seed: int = 7,
) -> Tuple[List[FieldDiff], List[str]]:
    """Run ``run_fn`` under each tie order and diff its headline dicts.

    ``run_fn`` receives a tie order and returns ``{field: value}``; it
    must build fresh state per call.  Returns the divergent fields and
    the perturbed-order names tried.  This is the differ's core, split
    out so tests can drive it with a bare engine instead of a full
    training run.
    """
    baseline = run_fn(TieOrder())
    diffs: List[FieldDiff] = []
    orders: List[str] = []
    for order in (ReversedTies(), SeededTies(seed)):
        orders.append(order.name)
        for key, before, after in diff_fields(baseline, run_fn(order)):
            diffs.append(FieldDiff(
                field=key,
                baseline=float("nan") if before is MISSING else before,
                perturbed=float("nan") if after is MISSING else after,
                order=order.name,
            ))
    return diffs, orders


def headline_fields(metrics: RunMetrics, cluster: Cluster
                    ) -> Dict[str, float]:
    """The per-run scalar fields the differ compares."""
    fields: Dict[str, float] = {
        "iteration_time_s": metrics.iteration_time,
        "tflops": metrics.tflops,
        "total_time_s": metrics.execution.total_time,
    }
    for index, seconds in enumerate(metrics.execution.iteration_times):
        fields[f"iteration[{index}]_s"] = seconds
    for link in cluster.topology.links:
        ledger = link.ledger
        if not len(ledger):
            continue
        fields[f"ledger[{link.name}].records"] = float(len(ledger))
        fields[f"ledger[{link.name}].bytes"] = float(ledger.total_bytes)
    return fields


@dataclass
class DiffResult:
    """Outcome of one perturbation diff over a training configuration."""

    strategy: str
    size_billions: float
    nodes: int
    iterations: int
    seed: int
    orders: List[str] = field(default_factory=list)
    fields_compared: int = 0
    diffs: List[FieldDiff] = field(default_factory=list)
    sanitizer: Optional[SanitizerReport] = None

    @property
    def races_confirmed(self) -> bool:
        return bool(self.diffs)

    def findings(self) -> List[Finding]:
        found: List[Finding] = []
        if self.sanitizer is not None:
            found.extend(sanitizer_findings(self.sanitizer))
        for diff in self.diffs:
            found.append(divergence_finding(
                diff.field,
                f"{diff.baseline!r} (fifo) vs {diff.perturbed!r} "
                f"({diff.order})",
                strategy=self.strategy,
            ))
        return found

    def report(self) -> Report:
        """The findings wrapped as a standard analysis report."""
        out = Report()
        out.passes_run.append(SANITIZER_PASS)
        out.passes_run.append(DIFFER_PASS)
        out.extend(self.findings())
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "size_billions": self.size_billions,
            "nodes": self.nodes,
            "iterations": self.iterations,
            "seed": self.seed,
            "orders": list(self.orders),
            "fields_compared": self.fields_compared,
            "races_confirmed": self.races_confirmed,
            "diffs": [d.to_dict() for d in self.diffs],
            "sanitizer": (self.sanitizer.to_dict()
                          if self.sanitizer is not None else None),
        }


def perturbation_diff(strategy_name: str = "ddp", *,
                      size_billions: float = 0.7,
                      nodes: int = 2,
                      placement: str = "B",
                      iterations: int = 2,
                      seed: int = 7) -> DiffResult:
    """Diff one training configuration across tie orders.

    The baseline (FIFO) run carries the schedule sanitizer, so the
    result bundles the suspect tie conflicts alongside the verdict; the
    perturbed runs skip it (only their headline fields matter).  Every
    run builds a fresh cluster — ledgers are per-cluster state.
    """
    placement_cfg = PLACEMENTS[placement]
    model = model_for_billions(size_billions)
    result = DiffResult(
        strategy=strategy_name, size_billions=size_billions,
        nodes=nodes, iterations=iterations, seed=seed,
    )

    def run(order: TieOrder) -> Dict[str, float]:
        cluster = strategy_cluster(strategy_name, nodes, placement_cfg)
        sanitize = order.name == "fifo" and result.sanitizer is None
        metrics = run_training(
            cluster, make_strategy(strategy_name), model,
            iterations=iterations, placement=placement_cfg,
            tie_order=order, sanitize=sanitize,
        )
        if sanitize:
            result.sanitizer = metrics.sanitizer
        fields = headline_fields(metrics, cluster)
        result.fields_compared = max(result.fields_compared, len(fields))
        return fields

    result.diffs, result.orders = diff_headline_runs(run, seed=seed)
    return result
