#!/usr/bin/env python3
"""Quickstart: simulate DeepSpeed ZeRO-2 training on one XE8545 node.

Builds the paper's single-node cluster (4x A100 40 GB, dual EPYC 7763),
trains a 1.4 B-parameter GPT-2-like model for a few iterations, and
prints the measurements the paper reports: throughput, iteration time,
memory usage, and per-interconnect bandwidth.

Run:  python examples/quickstart.py
"""

from repro import model_for_billions
from repro.core import run_training
from repro.hardware import single_node_cluster
from repro.parallel import zero2
from repro.trace import render_rank


def main() -> None:
    cluster = single_node_cluster()
    model = model_for_billions(1.4)
    strategy = zero2()

    print(f"cluster : {cluster.num_nodes} node(s), {cluster.num_gpus} GPUs")
    print(f"model   : {model.num_layers} layers "
          f"({model.hidden_size} hidden, {model.num_heads} heads)")
    print(f"strategy: {strategy.display_name}")
    print()

    metrics = run_training(cluster, strategy, model, iterations=5)

    print(f"throughput      : {metrics.tflops:8.1f} TFLOP/s "
          f"(paper measures 472 at this size)")
    print(f"iteration time  : {metrics.iteration_time * 1e3:8.1f} ms")
    print(f"GPU memory used : {metrics.memory.gpu_used / 1e9:8.1f} GB")
    print(f"CPU memory used : {metrics.memory.cpu_used / 1e9:8.1f} GB")
    print()
    print("aggregate bidirectional bandwidth per node (avg / peak GB/s):")
    for link_class, stats in metrics.bandwidth.items():
        if stats.peak > 0:
            print(f"  {str(link_class):10s} {stats.average_gbps:8.2f} / "
                  f"{stats.peak_gbps:8.2f}")
    print()
    print("one iteration, rank 0 (G=GEMM R=all-reduce A=all-gather "
          "O=optimizer .=idle):")
    start = metrics.measurement_window[0]
    print(render_rank(metrics.execution.spans, 0, width=100,
                      window=(start, start + metrics.iteration_time)))


if __name__ == "__main__":
    main()
