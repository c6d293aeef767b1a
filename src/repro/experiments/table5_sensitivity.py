"""Table V — sensitivity of throughput to model size.

Sweeps each configuration over the paper's model-size grid (up to its
achieved maximum) and reports TFLOP/s per cell.  The published shape:
throughput rises with size as fixed costs amortize; ZeRO-1 dips at its
ceiling (double-buffer pressure); both offload flavours stay flat across
the whole range.
"""

from __future__ import annotations

from typing import List

from ..api.build import strategy_cluster
from ..core.runner import run_training
from ..core.search import model_for_billions
from ..errors import OutOfMemoryError
from ..parallel.placement import PLACEMENTS
from ..telemetry.report import format_table
from . import paper_data
from .common import ALL_STRATEGIES, ExperimentResult, ExperimentSpec


def run(spec: ExperimentSpec | None = None) -> ExperimentResult:
    spec = spec or ExperimentSpec.quick("table5")
    iterations = spec.iterations
    placement = PLACEMENTS["B"]
    rows: List[dict] = []
    for config, paper_cells in paper_data.TABLE_V.items():
        sizes = sorted(paper_cells)
        if not spec.full_sweep and len(sizes) > 5:
            # Keep the sweep's endpoints and shape in quick mode.
            step = max(1, len(sizes) // 5)
            sizes = sorted(set(sizes[::step]) | {sizes[0], sizes[-1]})
        for size in sizes:
            cluster = strategy_cluster(config, 1, placement)
            strategy = ALL_STRATEGIES[config]()
            try:
                metrics = run_training(cluster, strategy,
                                       model_for_billions(size),
                                       iterations=iterations,
                                       placement=placement,
                                       fidelity=spec.fidelity)
            except OutOfMemoryError:
                rows.append({"config": config, "size_b": size,
                             "tflops": None,
                             "paper_tflops": paper_cells[size],
                             "fits": False})
                continue
            rows.append({"config": config, "size_b": size,
                         "tflops": metrics.tflops,
                         "paper_tflops": paper_cells[size],
                         "fits": True})
    table_rows = [
        [r["config"], r["size_b"],
         "OOM" if not r["fits"] else f"{r['tflops']:.0f}",
         r["paper_tflops"]]
        for r in rows
    ]
    rendered = format_table(
        ["configuration", "model (B)", "TFLOP/s", "paper"],
        table_rows,
        title="Table V — throughput vs model size",
    )
    return ExperimentResult("table5", "throughput sensitivity to size",
                            rows, rendered)
