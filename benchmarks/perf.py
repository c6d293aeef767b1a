"""DES raw-speed harness: events/sec + wall-clock on pinned scenarios.

Seeds the ROADMAP "benchmark trajectory": every perf-relevant PR runs

    PYTHONPATH=src python benchmarks/perf.py --out benchmarks/BENCH_NNN.json

and commits the JSON, so the event-loop hot-path work (batching,
memoization, the analytic fast-path) has a measured baseline to beat.
The scenarios are pinned — same strategy, model size, node count,
and iteration count forever — so files are comparable across PRs:

* ``single_node_zero2``: the paper's headline single-node config.
* ``dual_node_zero3``: two nodes, ZeRO-3 — collective-heavy, exercises
  the inter-node flow network.
* ``steady_*_full`` / ``steady_*_hybrid``: the same 24-iteration steady
  workload at both fidelities — the fast-path scenarios whose speedup
  the DES fast-path PR is accountable for.  Hybrid rows additionally
  report ``events_extrapolated`` and ``effective_events_per_sec``
  ((simulated + extrapolated events) / wall), the apples-to-apples
  throughput figure for a run that covers the same 24 iterations.
* ``single_node_zero2_leakcheck``: ``single_node_zero2`` with the
  teardown leak audit on (``leak_check=True``), tracked against the
  identical unchecked scenario so the audit's cost stays honest (it
  must remain a small constant factor, never a slowdown that
  discourages leak-checked CI runs).
* ``cluster_fifo_16``: the multi-tenant cluster service — 16 seeded
  Poisson arrivals scheduled FIFO onto a 4-node fabric through one
  shared engine.  Rows report ``jobs_completed`` and the simulated
  ``jobs_per_hour`` alongside the usual events/sec, so scheduler and
  shared-ledger overhead has its own trajectory.
* ``serve_continuous_64``: the inference serving subsystem — 64 seeded
  Poisson chat requests through one TP-2 instance under continuous
  batching.  Rows report ``requests_completed`` and the simulated
  ``goodput_requests_per_s`` alongside the usual events/sec, so the
  serving scheduler's admission/KV-cache bookkeeping overhead is
  tracked like everything else.

Event counts are deterministic (the DES is seeded and tie-ordered);
wall-clock and events/sec carry machine jitter, which is why each file
also records the interpreter version and the median of several repeats.

``--check-against PATH`` turns the harness into a CI regression gate:
it re-measures every scenario present in the committed record and fails
(exit 1) if any ``events_per_sec`` drops more than ``--tolerance``
(default 20%) below the committed value.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

from repro.api import RunSpec, run_spec
from repro.cluster import ClusterScenario, run_cluster
from repro.inference import InferenceSpec, run_inference

#: Pinned forever — edit only by adding new scenarios, never by changing
#: existing ones, or the cross-PR trajectory breaks.
SCENARIOS: Dict[str, RunSpec] = {
    "single_node_zero2": RunSpec(strategy="zero2", size_billions=1.4,
                                 nodes=1, iterations=4),
    "dual_node_zero3": RunSpec(strategy="zero3", size_billions=0.7,
                               nodes=2, iterations=4),
    "single_node_zero2_leakcheck": RunSpec(
        strategy="zero2", size_billions=1.4, nodes=1, iterations=4,
        leak_check=True),
}

#: Fast-path scenarios: one steady 24-iteration workload per cluster
#: preset, measured at full and hybrid fidelity.  The paired rows share
#: a workload, so ``wall_clock_s(full) / wall_clock_s(hybrid)`` is the
#: honest fast-path speedup.
FASTPATH_SCENARIOS: Dict[str, RunSpec] = {
    "steady_single_zero2_full": RunSpec(
        strategy="zero2", size_billions=1.4, nodes=1, iterations=24),
    "steady_single_zero2_hybrid": RunSpec(
        strategy="zero2", size_billions=1.4, nodes=1, iterations=24,
        fidelity="hybrid"),
    "steady_dual_zero3_full": RunSpec(
        strategy="zero3", size_billions=0.7, nodes=2, iterations=24),
    "steady_dual_zero3_hybrid": RunSpec(
        strategy="zero3", size_billions=0.7, nodes=2, iterations=24,
        fidelity="hybrid"),
}

ALL_SCENARIOS: Dict[str, RunSpec] = {**SCENARIOS, **FASTPATH_SCENARIOS}

#: Cluster-service scenarios: many jobs through one shared engine.
#: Pinned like everything else; measured via ``run_cluster``.
CLUSTER_SCENARIOS: Dict[str, ClusterScenario] = {
    "cluster_fifo_16": ClusterScenario(
        name="bench", nodes=4, policy="fifo", rate_per_hour=12000.0,
        num_jobs=16, arrival_seed=7, mix="default"),
}

#: Inference-serving scenarios: seeded open-loop traffic through one
#: serving instance.  Pinned like everything else; measured via
#: ``run_inference``.
INFERENCE_SCENARIOS: Dict[str, InferenceSpec] = {
    "serve_continuous_64": InferenceSpec(
        size_billions=0.7, gpus=2, nodes=1, rate_per_second=8.0,
        num_requests=64, arrival_seed=7, request_mix="chat",
        batching="continuous"),
}

#: v2: adds the fast-path scenarios and, on hybrid rows, the
#: ``fidelity`` / ``events_extrapolated`` / ``effective_events_per_sec``
#: fields.  Pre-v2 rows are still comparable by scenario name.
#: v3: adds the leak-sanitizer scenario with its ``leak_check`` /
#: ``flows_tracked`` fields.  Additive only — older rows unchanged.
#: v4: adds the cluster-service scenario with ``jobs_completed`` /
#: ``jobs_per_hour`` fields.  Additive only — older rows unchanged.
#: v5: adds the inference-serving scenario with ``requests_completed``
#: / ``goodput_requests_per_s`` fields.  Additive only — older rows
#: unchanged.
#: v6: the leak-check row drops ``flows_tracked``; the leak audit no
#: longer tracks flows one by one.
SCHEMA_VERSION = 6


def run_scenario(name: str, spec: RunSpec, *, repeats: int = 3) -> dict:
    """Run one pinned scenario ``repeats`` times, report the median."""
    wall_times: List[float] = []
    events = 0
    extrapolated = 0
    for _ in range(repeats):
        started = time.perf_counter()
        metrics = run_spec(spec)
        wall_times.append(time.perf_counter() - started)
        events = metrics.execution.events_processed
        extrapolated = metrics.execution.events_extrapolated
    wall_s = statistics.median(wall_times)
    row = {
        "scenario": name,
        "strategy": spec.strategy,
        "size_billions": spec.size_billions,
        "nodes": spec.nodes,
        "iterations": spec.iterations,
        "events_processed": events,
        "wall_clock_s": round(wall_s, 4),
        "events_per_sec": round(events / wall_s, 1) if wall_s else 0.0,
        "repeats": repeats,
    }
    if spec.fidelity != "full":
        row["fidelity"] = spec.fidelity
        row["events_extrapolated"] = extrapolated
        row["effective_events_per_sec"] = (
            round((events + extrapolated) / wall_s, 1) if wall_s else 0.0
        )
    if spec.leak_check:
        row["leak_check"] = True
        metrics.leaks.assert_clean()
    return row


def run_cluster_scenario(name: str, scenario: ClusterScenario, *,
                         repeats: int = 3) -> dict:
    """Run one pinned cluster scenario ``repeats`` times; median wall."""
    wall_times: List[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        report = run_cluster(scenario).report
        wall_times.append(time.perf_counter() - started)
    wall_s = statistics.median(wall_times)
    return {
        "scenario": name,
        "kind": "cluster",
        "policy": scenario.policy,
        "nodes": scenario.nodes,
        "jobs": scenario.num_jobs,
        "jobs_completed": report.jobs_completed,
        "jobs_per_hour": round(report.goodput_jobs_per_hour, 2),
        "events_processed": report.events_processed,
        "wall_clock_s": round(wall_s, 4),
        "events_per_sec": (round(report.events_processed / wall_s, 1)
                           if wall_s else 0.0),
        "repeats": repeats,
    }


def run_inference_scenario(name: str, spec: InferenceSpec, *,
                           repeats: int = 3) -> dict:
    """Run one pinned serving scenario ``repeats`` times; median wall."""
    wall_times: List[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        report = run_inference(spec).report
        wall_times.append(time.perf_counter() - started)
    wall_s = statistics.median(wall_times)
    return {
        "scenario": name,
        "kind": "inference",
        "batching": spec.batching,
        "gpus": spec.gpus,
        "nodes": spec.nodes,
        "requests": spec.num_requests,
        "requests_completed": report.requests_completed,
        "goodput_requests_per_s": round(report.goodput_requests_per_s, 2),
        "events_processed": report.events_processed,
        "wall_clock_s": round(wall_s, 4),
        "events_per_sec": (round(report.events_processed / wall_s, 1)
                           if wall_s else 0.0),
        "repeats": repeats,
    }


def check_against(committed: dict, *, tolerance: float,
                  repeats: int) -> int:
    """Re-measure committed scenarios; fail on a >tolerance regression."""
    failures = 0
    for row in committed.get("scenarios", []):
        name = row["scenario"]
        cluster_scenario = CLUSTER_SCENARIOS.get(name)
        inference_scenario = INFERENCE_SCENARIOS.get(name)
        if cluster_scenario is not None:
            fresh = run_cluster_scenario(name, cluster_scenario,
                                         repeats=repeats)
        elif inference_scenario is not None:
            fresh = run_inference_scenario(name, inference_scenario,
                                           repeats=repeats)
        else:
            spec = ALL_SCENARIOS.get(name)
            if spec is None:
                print(f"{name}: unknown scenario in committed record, "
                      f"skipping", file=sys.stderr)
                continue
            fresh = run_scenario(name, spec, repeats=repeats)
        floor = row["events_per_sec"] * (1.0 - tolerance)
        status = "ok" if fresh["events_per_sec"] >= floor else "REGRESSION"
        if status == "REGRESSION":
            failures += 1
        print(f"{name}: {fresh['events_per_sec']:.0f} events/s "
              f"(committed {row['events_per_sec']:.0f}, "
              f"floor {floor:.0f}) {status}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON record here (default: stdout)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="wall-clock repeats per scenario (median wins)")
    parser.add_argument("--check-against", type=Path, default=None,
                        metavar="PATH",
                        help="compare fresh events/sec against a committed "
                             "BENCH record; exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional events/sec drop for "
                             "--check-against (default 0.2)")
    args = parser.parse_args(argv)

    if args.check_against is not None:
        committed = json.loads(args.check_against.read_text())
        return check_against(committed, tolerance=args.tolerance,
                             repeats=args.repeats)

    record = {
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "scenarios": [run_scenario(name, spec, repeats=args.repeats)
                      for name, spec in sorted(ALL_SCENARIOS.items())]
                     + [run_cluster_scenario(name, scenario,
                                             repeats=args.repeats)
                        for name, scenario
                        in sorted(CLUSTER_SCENARIOS.items())]
                     + [run_inference_scenario(name, spec,
                                               repeats=args.repeats)
                        for name, spec
                        in sorted(INFERENCE_SCENARIOS.items())],
    }
    payload = json.dumps(record, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(payload)
    else:
        args.out.write_text(payload)
        for row in record["scenarios"]:
            print(f"{row['scenario']}: {row['events_processed']} events "
                  f"in {row['wall_clock_s']}s "
                  f"({row['events_per_sec']:.0f} events/s)", file=sys.stderr)
        print(f"written: {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
