"""Ablation — SerDes crossbar contention on/off.

The paper's central hypothesis (Section III-C4) is that EPYC IOD
SerDes-to-SerDes forwarding halves attained bandwidth.  Disabling the
contention model should (a) lift the cross-socket stress-test numbers to
near-theoretical and (b) recover a large share of dual-node Megatron-LM's
lost throughput — demonstrating how much of the paper's dual-node story
this single mechanism carries.
"""

from __future__ import annotations

from ..core.runner import run_training
from ..core.search import max_model_size
from ..hardware.presets import dual_node_cluster, uncontended_cluster
from ..model.config import paper_model
from ..parallel import MegatronStrategy, zero3
from ..stress.bandwidth_test import TestKind, run_stress_test
from ..stress.perftest import SocketPlacement
from ..telemetry.report import format_table
from .common import ExperimentResult, ExperimentSpec


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("ablation_serdes")
    iterations = spec.iterations
    rows = []
    for contended in (True, False):
        make = dual_node_cluster if contended else uncontended_cluster
        # Stress test: cross-socket GPU-RoCE attained fraction.
        stress = run_stress_test(make(), TestKind.GPU_ROCE,
                                 SocketPlacement.CROSS_SOCKET,
                                 duration=spec.duration_s)
        # Training: dual-node Megatron-LM and ZeRO-3 at max size.
        for factory in (MegatronStrategy, zero3):
            cluster = make()
            strategy = factory()
            search = max_model_size(cluster, strategy)
            metrics = run_training(cluster, strategy,
                                   paper_model(search.max_layers),
                                   iterations=iterations,
                                   fidelity=spec.fidelity)
            rows.append({
                "contention": contended,
                "strategy": strategy.name,
                "tflops": metrics.tflops,
                "stress_fraction": stress.attained_fraction(),
            })
    rendered = format_table(
        ["contention", "strategy", "TFLOP/s", "cross-socket GPU-RoCE %"],
        [[r["contention"], r["strategy"], r["tflops"],
          100 * r["stress_fraction"]] for r in rows],
        title="Ablation — SerDes contention model on/off (dual node)",
    )
    return ExperimentResult("ablation_serdes", "SerDes contention ablation",
                            rows, rendered)
