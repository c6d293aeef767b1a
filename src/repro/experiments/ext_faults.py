"""Extension — graceful degradation under injected fabric faults.

The paper characterizes DeepSpeed on *healthy* hardware; real clusters
spend a measurable fraction of their life partially degraded (throttled
links, flapping transceivers, slow drives).  This experiment sweeps
injected RoCE capacity loss on the dual-node cluster and reports, per
strategy, how gracefully throughput degrades: communication-heavy
strategies (ZeRO-3, which all-gathers parameters every step) should fall
off faster than DDP's single bucketed all-reduce — the fault-domain
corollary of the paper's central bandwidth-sensitivity finding.

Every fault is a seeded :class:`~repro.faults.plan.FaultPlan`, so rows
are bit-reproducible run to run.
"""

from __future__ import annotations

from ..api.build import preset_cluster
from ..core.runner import run_training
from ..core.search import model_for_billions
from ..faults import FaultEvent, FaultKind, FaultPlan
from ..telemetry.report import format_table
from .common import ExperimentResult, ExperimentSpec, make_strategy

#: Fits every swept strategy on the dual-node cluster (DDP's ceiling).
SWEEP_MODEL_B = 1.4

#: Injected RoCE capacity-loss fractions.  The degrade targets the
#: switch, so every node's inter-node ports shrink together — the
#: oversubscribed-fabric scenario.
QUICK_LOSSES = (0.0, 0.5, 0.9)
FULL_LOSSES = (0.0, 0.25, 0.5, 0.75, 0.9)

QUICK_STRATEGIES = ("ddp", "zero1", "zero2", "zero3")
FULL_STRATEGIES = ("ddp", "megatron", "zero1", "zero2", "zero3")

#: Long enough to cover any swept run end to end.
FAULT_WINDOW_S = 1000.0


def fabric_loss_plan(loss: float, *, seed: int = 0) -> FaultPlan:
    """A plan degrading the whole inter-node fabric by ``loss``."""
    events = []
    if loss > 0.0:
        events.append(FaultEvent(
            target="switch0", kind=FaultKind.LINK_DEGRADE,
            start=0.0, duration=FAULT_WINDOW_S, magnitude=loss,
        ))
    return FaultPlan(events=events, seed=seed)


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("ext_faults")
    iterations = spec.iterations
    losses = FULL_LOSSES if spec.full_sweep else QUICK_LOSSES
    strategies = FULL_STRATEGIES if spec.full_sweep else QUICK_STRATEGIES
    model = model_for_billions(SWEEP_MODEL_B)
    rows = []
    for name in strategies:
        for loss in losses:
            cluster = preset_cluster(2)
            metrics = run_training(
                cluster, make_strategy(name), model,
                iterations=iterations,
                fault_plan=fabric_loss_plan(loss),
                fidelity=spec.fidelity,
            )
            rows.append({
                "strategy": name,
                "roce_loss": loss,
                "tflops": metrics.tflops,
                "iteration_s": metrics.iteration_time,
            })
    # Degradation curve: slowdown relative to the same strategy unfaulted.
    healthy = {
        r["strategy"]: r["iteration_s"] for r in rows if r["roce_loss"] == 0.0
    }
    for row in rows:
        row["slowdown"] = row["iteration_s"] / healthy[row["strategy"]]
        row["throughput_retained"] = 1.0 / row["slowdown"]
    rendered = format_table(
        ["strategy", "RoCE loss", "TFLOP/s", "iter (s)", "slowdown",
         "retained"],
        [[r["strategy"], r["roce_loss"], r["tflops"], r["iteration_s"],
          r["slowdown"], r["throughput_retained"]] for r in rows],
        title=f"Extension — degradation under fabric faults at {SWEEP_MODEL_B} B",
    )
    return ExperimentResult("ext_faults", "graceful degradation extension",
                            rows, rendered)
