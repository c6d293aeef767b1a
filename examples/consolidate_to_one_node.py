#!/usr/bin/env python3
"""Consolidate dual-node training onto one node with ZeRO-Offload/Infinity.

The paper's Section V story: a model that needs two nodes under
Megatron-LM (11.4 B parameters) fits on ONE node once optimizer states
move to CPU DRAM — at *higher* throughput — and a 6x larger model fits
once they move to NVMe.  This example walks the whole ladder and shows
where the bytes and the time go at each step.

Run:  python examples/consolidate_to_one_node.py
"""

from repro import max_model_size, model_for_billions, paper_model
from repro.core import run_training
from repro.hardware import Cluster, ClusterSpec, dual_node_cluster, single_node_cluster
from repro.parallel import (
    MegatronStrategy,
    PLACEMENTS,
    zero2_cpu_offload,
    zero3_nvme_optimizer_params,
)
from repro.telemetry.report import format_table
from repro.trace import render_rank


def describe(label, metrics):
    mem = metrics.memory
    return [
        label,
        f"{metrics.billions_of_parameters:.1f}",
        f"{metrics.num_nodes}",
        f"{metrics.tflops:.1f}",
        f"{mem.gpu_used / 1e9:.0f}",
        f"{mem.cpu_used / 1e9:.0f}",
        f"{mem.nvme_used / 1e9:.0f}",
    ]


def main() -> None:
    rows = []

    # Step 0: the dual-node Megatron-LM reference at its maximum size.
    dual = dual_node_cluster()
    megatron = MegatronStrategy()
    search = max_model_size(dual, megatron)
    reference = run_training(dual, megatron, paper_model(search.max_layers),
                             iterations=3)
    rows.append(describe("Megatron-LM, 2 nodes", reference))
    model = model_for_billions(reference.billions_of_parameters)

    # Step 1: the same model on ONE node with CPU optimizer offload.
    single = single_node_cluster()
    offload = run_training(single, zero2_cpu_offload(), model, iterations=3)
    rows.append(describe("ZeRO-2 + CPU offload, 1 node", offload))

    # Step 2: six-times-larger model on one node with NVMe offload.
    placement = PLACEMENTS["B"]  # 2x NVMe RAID0 on socket 1
    nvme_cluster = Cluster(ClusterSpec(num_nodes=1,
                                       node=placement.node_spec()))
    big = model_for_billions(33.3)
    infinity = run_training(nvme_cluster, zero3_nvme_optimizer_params(),
                            big, iterations=2, warmup_iterations=1,
                            placement=placement)
    rows.append(describe("ZeRO-Infinity (2x NVMe), 1 node", infinity))

    print(format_table(
        ["configuration", "model (B)", "nodes", "TFLOP/s",
         "GPU GB", "CPU GB", "NVMe GB"],
        rows,
        title="Consolidating multi-node training into a single node",
    ))
    speedup = offload.tflops / reference.tflops
    print()
    print(f"ZeRO-Offload on one node vs Megatron-LM on two: "
          f"{speedup:.2f}x throughput (paper: 1.58x)")
    print(f"ZeRO-Infinity model vs dual-node Megatron-LM model: "
          f"{infinity.billions_of_parameters / reference.billions_of_parameters:.1f}x size")
    print()
    print("Where the time goes under NVMe offload (rank 0):")
    start = infinity.measurement_window[0]
    print(render_rank(infinity.execution.spans, 0, width=100,
                      window=(start, start + infinity.iteration_time)))
    print("  (N = NVMe swap traffic, C = CPU Adam, . = idle GPU)")


if __name__ == "__main__":
    main()
