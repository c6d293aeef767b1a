"""Fig. 6 — achieved model size, single- and dual-node.

Replays the paper's layer-growth procedure per strategy via the memory
plan and reports the largest model that fits, next to the published
value (e.g. ZeRO-3 fits ~20 % more than Megatron-LM; DDP is pinned to
one GPU's memory).
"""

from __future__ import annotations

from ..api.build import preset_cluster
from ..core.search import max_model_size
from ..telemetry.report import format_table
from . import paper_data
from .common import CORE_STRATEGIES, ExperimentResult, ExperimentSpec


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    del spec  # the search is analytic and fast
    rows = []
    for num_nodes, paper in ((1, paper_data.ACHIEVED_SIZE_SINGLE_NODE_B),
                             (2, paper_data.ACHIEVED_SIZE_DUAL_NODE_B)):
        cluster = preset_cluster(num_nodes)
        for name, factory in CORE_STRATEGIES.items():
            result = max_model_size(cluster, factory())
            rows.append({
                "nodes": num_nodes,
                "strategy": name,
                "achieved_b": result.billions,
                "paper_b": paper[name],
                "max_layers": result.max_layers,
            })
    rendered = format_table(
        ["nodes", "strategy", "achieved (B)", "paper (B)", "layers"],
        [[r["nodes"], r["strategy"], r["achieved_b"], r["paper_b"],
          r["max_layers"]] for r in rows],
        title="Fig. 6 — achieved model size",
    )
    return ExperimentResult("fig6", "achieved model size", rows, rendered)
