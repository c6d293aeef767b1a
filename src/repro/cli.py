"""Command-line interface.

Eight subcommands mirror the paper's workflow::

    repro run      --strategy zero2 --size 1.4 --nodes 1     # one training run
    repro run      --strategy ddp --trace out.json           # + Perfetto trace
    repro campaign run --experiment fig7 --workers 4         # cached sweeps
    repro campaign status                                    # cache integrity
    repro campaign gc                                        # drop stale objects
    repro search   --strategy zero3 --nodes 2                # max model size
    repro stress   --duration 10                             # Fig. 3/4 tests
    repro topology --nodes 2 --placement G [--json]          # Fig. 2 wiring
    repro experiment fig7 [--full]                           # any table/figure
    repro analyze  --strategy zero3_nvme --size 20           # pre-run lints
    repro faults   --strategy zero3 \
                   --fault "node0.nic0:down@t=2ms,dur=1ms" --seed 7
                                                  # degraded-fabric run
    repro cluster run --policy sjf --rate-per-hour 2400 \
                   --jobs 20 --leak-check           # multi-tenant service
    repro trace diff a.json b.json                # compare two traces
    repro trace summary out.json                  # span/byte summary
    repro trace check out.json                    # schema validation

Installed as the ``repro`` console script; also runnable via
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis import (
    Severity,
    analyze_dimensions,
    analyze_run_config,
    analyze_source,
    apply_baseline,
    code_owners,
    load_baseline,
    render_text,
    write_baseline,
)
from .api import RunSpec, run_spec
from .api.build import preset_cluster, strategy_cluster
from .core.results import metrics_to_dict
from .core.runner import run_training
from .core.search import max_model_size, model_for_billions
from .errors import ReproError
from .experiments import EXPERIMENTS, run_experiment
from .experiments.common import ALL_STRATEGIES, make_strategy
from .faults import FaultPlan, degradation_report
from .telemetry.bandwidth import BandwidthMonitor
from .hardware import dual_node_cluster
from .inference import BATCHING_POLICIES, REQUEST_MIXES
from .hardware.render import render_cluster, render_cluster_json
from .parallel.placement import PLACEMENTS
from .sim.fastpath import FIDELITIES
from .stress import full_stress_suite, latency_sweep
from .telemetry.report import format_table
from .units import GB, to_billion


def _report_instruments(args: argparse.Namespace, leaks, trace,
                        kind: str, hint: str = "") -> None:
    """Fail a leak-checked run that leaked, and write a traced run's
    trace, each with its one stderr line."""
    if args.leak_check:
        assert leaks is not None
        leaks.assert_clean()
        print(f"leak sanitizer: clean ({leaks.pools_audited} pools "
              f"audited)", file=sys.stderr)
    if args.trace is not None:
        from .trace import write_trace
        assert trace is not None
        write_trace(trace, args.trace)
        print(f"{kind} written: {args.trace} "
              f"({len(trace.spans)} spans, "
              f"{len(trace.flows)} flows, "
              f"{len(trace.links)} links){hint}",
              file=sys.stderr)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .inference import InferenceSpec

    spec = InferenceSpec(
        size_billions=args.size,
        gpus=args.gpus,
        nodes=args.nodes,
        rate_per_second=args.rate,
        num_requests=args.requests,
        arrival_seed=args.seed,
        request_mix=args.mix,
        batching=args.batching,
        max_batch_tokens=args.max_batch_tokens,
        max_batch_requests=args.max_batch_requests,
        kv_fraction=args.kv_fraction,
        slo_ttft_s=args.slo_ttft,
        slo_tpot_s=args.slo_tpot,
        trace=args.trace is not None,
        leak_check=args.leak_check,
    )
    run = spec.run()
    report = run.report
    _report_instruments(args, report.leaks, run.trace, "serving trace")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(format_table(
            ["metric", "value"],
            [["spec", report.spec_label],
             ["batching", report.batching],
             ["nodes x GPUs (TP)", f"{report.nodes} x {report.num_gpus}"],
             ["requests (done/all)",
              f"{report.requests_completed}/{report.requests_submitted}"],
             ["TTFT p50/p99 (s)",
              f"{report.ttft_p50_s:.4f}/{report.ttft_p99_s:.4f}"],
             ["TPOT p50/p99 (s)",
              f"{report.tpot_p50_s:.4f}/{report.tpot_p99_s:.4f}"],
             ["queue wait p50/p99 (s)",
              f"{report.queue_wait_p50_s:.4f}"
              f"/{report.queue_wait_p99_s:.4f}"],
             ["goodput (req/s | tok/s)",
              f"{report.goodput_requests_per_s:.2f} | "
              f"{report.goodput_tokens_per_s:.1f}"],
             ["SLO attainment", round(report.slo_attainment, 4)],
             ["KV peak / budget (GB)",
              f"{report.kv_peak_bytes / GB:.2f}"
              f"/{report.kv_budget_bytes / GB:.2f}"],
             ["makespan (s)", round(report.total_time_s, 3)],
             ["cache key", spec.cache_key()[:16]]],
            title="inference serving run",
        ))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = RunSpec(
        strategy=args.strategy,
        size_billions=args.size,
        nodes=args.nodes,
        placement=args.placement,
        iterations=args.iterations,
        trace=args.trace is not None,
        leak_check=args.leak_check,
        fidelity=args.fidelity,
    )
    metrics = run_spec(spec)
    _report_instruments(args, metrics.leaks, metrics.trace, "trace",
                        " — load it in https://ui.perfetto.dev or "
                        "chrome://tracing")
    payload = metrics_to_dict(metrics)
    if args.json:
        # The same machine-readable schema `save_metrics` writes and the
        # campaign cache stores (core.results.SCHEMA_VERSION).
        print(json.dumps(payload, indent=2))
    else:
        memory = payload["memory_bytes"]
        print(format_table(
            ["metric", "value"],
            [["strategy", payload["strategy"]],
             ["model (B params)",
              round(to_billion(payload["model_parameters"]), 3)],
             ["nodes x GPUs", f"{payload['nodes']} x {payload['gpus']}"],
             ["TFLOP/s", round(payload["tflops"], 1)],
             ["iteration (s)", round(payload["iteration_seconds"], 4)],
             ["GPU / CPU / NVMe (GB)",
              " / ".join(f"{memory[tier] / GB:.1f}"
                         for tier in ("gpu", "cpu", "nvme"))],
             ["cache key", spec.cache_key()[:16]]],
            title="training run",
        ))
        print()
        print(format_table(
            ["interconnect", "avg GB/s"],
            [[cls, round(stats["avg"], 2)]
             for cls, stats in sorted(payload["bandwidth_gbps"].items())],
        ))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import (
        CampaignSpec,
        ResultCache,
        load_campaign,
        run_campaign,
    )

    if args.campaign_command == "status":
        cache = ResultCache(args.cache_dir)
        stats = cache.stats()
        findings = cache.verify()
        if args.json:
            print(json.dumps({
                "stats": stats,
                "findings": [f.to_dict() for f in findings],
            }, indent=2))
        else:
            print(f"cache {stats['root']}: {stats['objects']} objects, "
                  f"{stats['bytes']} bytes")
            for label, count in sorted(stats["by_salt"].items()):
                print(f"  {label}: {count}")
            for finding in findings:
                print(f"  [{finding.code}] {finding.message} "
                      f"({finding.location})")
            print("integrity: " + ("ok" if not findings
                                   else f"{len(findings)} problem(s)"))
        return 0 if not findings else 1

    if args.campaign_command == "gc":
        cache = ResultCache(args.cache_dir)
        counts = cache.gc()
        print(f"gc {args.cache_dir}: kept {counts['kept']}, removed "
              f"{counts['removed_stale']} stale + "
              f"{counts['removed_corrupt']} corrupt object(s)")
        return 0

    # campaign run
    if args.spec:
        campaign = load_campaign(args.spec)
    else:
        campaign = CampaignSpec(
            name=args.name,
            experiments=tuple(args.experiment or ()),
            strategies=tuple(args.strategy or ()),
            sizes_billions=tuple(args.size or ()),
            nodes=tuple(args.nodes or (1,)),
            placement=args.placement,
            iterations=args.iterations,
            full=args.full,
        )
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    report = run_campaign(
        campaign, workers=args.workers, cache=cache,
        progress=lambda message: print(message, file=sys.stderr),
    )
    if args.report:
        report.save(args.report)
        print(f"report written: {args.report}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
        for job in report.jobs:
            source = "cache " if job.cached else f"{job.elapsed_s:5.1f}s"
            print(f"  [{source}] {job.job_id}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .cluster import ClusterScenario, run_cluster

    if args.arrivals == "poisson":
        scenario = ClusterScenario(
            name=args.name,
            nodes=args.nodes,
            policy=args.policy,
            arrivals="poisson",
            rate_per_hour=args.rate_per_hour,
            num_jobs=args.jobs,
            arrival_seed=args.seed,
            mix=args.mix,
            aging_rate=args.aging,
            leak_check=args.leak_check,
            trace=args.trace is not None,
        )
    else:
        from .errors import ConfigurationError
        try:
            with open(args.arrivals, "r", encoding="utf-8") as handle:
                entries = json.load(handle)
        except OSError as error:
            raise ConfigurationError(
                f"cannot read arrivals trace {args.arrivals!r}: "
                f"{error.strerror or error}") from error
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"arrivals trace {args.arrivals!r} is not valid JSON: "
                f"{error}") from error
        if not isinstance(entries, list):
            raise ConfigurationError(
                f"arrivals trace {args.arrivals!r} must be a JSON list "
                f"of job entries, got {type(entries).__name__}")
        scenario = ClusterScenario(
            name=args.name,
            nodes=args.nodes,
            policy=args.policy,
            arrivals="trace",
            trace_jobs=tuple(entries),
            aging_rate=args.aging,
            leak_check=args.leak_check,
            trace=args.trace is not None,
        )
    run = run_cluster(scenario)
    report = run.report
    _report_instruments(args, report.leaks, run.trace, "cluster trace")
    payload = report.to_dict()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(format_table(
            ["metric", "value"],
            [["policy", report.policy],
             ["nodes x GPUs", f"{report.nodes} x {report.num_gpus}"],
             ["jobs (done/failed/all)",
              f"{report.jobs_completed}/{report.jobs_failed}"
              f"/{report.jobs_submitted}"],
             ["preemptions", report.preemptions],
             ["goodput (jobs/h)",
              round(report.goodput_jobs_per_hour, 2)],
             ["queue wait p50/p99 (s)",
              f"{report.queue_wait_p50_s:.3f}"
              f"/{report.queue_wait_p99_s:.3f}"],
             ["max in system", report.max_in_system_jobs],
             ["cluster utilization",
              round(report.cluster_utilization, 4)],
             ["makespan (s)", round(report.total_time_s, 3)]],
            title=f"cluster service: {report.scenario}",
        ))
        print()
        print(format_table(
            ["tenant", "jobs", "gpu-s", "util", "preempt"],
            [[name,
              account["jobs_completed"],
              round(float(account["gpu_seconds"]), 2),
              account["utilization"],
              account["preemptions"]]
             for name, account in sorted(report.tenants.items())],
        ))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    strategy = make_strategy(args.strategy)
    placement = PLACEMENTS[args.placement]
    cluster = strategy_cluster(args.strategy, args.nodes, placement)
    result = max_model_size(cluster, strategy, placement=placement)
    if args.json:
        print(json.dumps({
            "strategy": strategy.name,
            "nodes": args.nodes,
            "max_layers": result.max_layers,
            "max_billions": round(result.billions, 3),
            "paper_grid_billions": result.grid_parameters,
        }, indent=2))
    else:
        print(f"{strategy.display_name} on {args.nodes} node(s): "
              f"{result.billions:.2f} B parameters "
              f"({result.max_layers} layers)")
    return 0


def _cmd_stress(args: argparse.Namespace) -> int:
    cluster = dual_node_cluster()
    suite = full_stress_suite(cluster, duration=args.duration)
    rows = []
    for (kind, placement), result in suite.items():
        rows.append([kind.value, placement.value,
                     f"{result.roce_average_gbps:.1f}",
                     f"{result.attained_fraction() * 100:.0f}%"])
    print(format_table(
        ["test", "placement", "RoCE avg GB/s", "attained"],
        rows, title="Fig. 4 — inter-node bandwidth stress test",
    ))
    sweep = latency_sweep(dual_node_cluster())
    small = [
        (verb.value, placement.value,
         max(s.latency_us for s in samples if s.message_bytes < 65536))
        for (verb, placement), samples in sweep.items()
    ]
    print()
    print(format_table(
        ["verb", "placement", "max latency <64kB (us)"],
        [[v, p, f"{lat:.1f}"] for v, p, lat in small],
        title="Fig. 3 — RoCE latency",
    ))
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    placement = PLACEMENTS[args.placement]
    cluster = preset_cluster(args.nodes, placement)
    if args.json:
        print(json.dumps(render_cluster_json(cluster), indent=2))
    else:
        print(render_cluster(cluster))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .trace import (
        diff_traces,
        load_document,
        load_trace,
        summarize,
        trace_from_document,
        validate_chrome_trace,
    )
    if args.trace_command == "diff":
        diff = diff_traces(load_trace(args.a), load_trace(args.b))
        print(diff.render())
        return 0 if diff.clean else 1
    if args.trace_command == "summary":
        summary = summarize(load_trace(args.path))
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    # check: Chrome Trace schema validation + native-schema readability
    doc = load_document(args.path)
    problems = validate_chrome_trace(doc)
    trace = trace_from_document(doc)
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1
    print(f"{args.path}: valid ({len(trace.spans)} spans, "
          f"{len(trace.flows)} flows, {len(trace.collectives)} collectives, "
          f"{len(trace.links)} link accounts, "
          f"{len(trace.counters)} counter tracks)")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if sum((args.self, args.sanitize, args.dims)) > 1:
        print("error: --self, --dims, and --sanitize are mutually "
              "exclusive", file=sys.stderr)
        return 2
    if args.root is not None and not (args.self or args.dims):
        print("error: --root applies only to --self and --dims",
              file=sys.stderr)
        return 2
    diff_result = None
    if args.sanitize:
        # Deferred: the differ pulls in the training runner, which the
        # static-only paths never need.
        from .analysis.determinism.differ import perturbation_diff
        diff_result = perturbation_diff(
            args.strategy, size_billions=args.size, nodes=args.nodes,
            placement=args.placement, iterations=args.iterations,
            seed=args.seed,
        )
        report = diff_result.report()
    elif args.self:
        report = analyze_source(root=args.root)
    elif args.dims:
        report = analyze_dimensions(root=args.root)
    else:
        strategy = make_strategy(args.strategy)
        placement = PLACEMENTS[args.placement]
        cluster = strategy_cluster(args.strategy, args.nodes, placement)
        model = model_for_billions(args.size)
        report = analyze_run_config(
            cluster, strategy, model,
            placement=placement,
            tensor_parallel=args.tensor_parallel,
            pipeline_parallel=args.pipeline_parallel,
        )

    if args.update_baseline:
        if not args.baseline:
            print("error: --update-baseline requires --baseline PATH",
                  file=sys.stderr)
            return 2
        write_baseline(report, args.baseline)
        print(f"baseline written: {args.baseline} "
              f"({len(report.findings)} accepted findings)")
        return 0
    if args.baseline:
        report, stale = apply_baseline(report, load_baseline(args.baseline))
        owners = code_owners()
        for entry in stale:
            owner = owners.get(entry.code)
            if owner is not None and owner not in report.passes_run:
                # A pass that did not run cannot vouch for staleness: a
                # dims-only invocation must not call DET entries stale.
                continue
            print(f"note: stale baseline entry matched nothing: "
                  f"{entry.code} in {entry.file}", file=sys.stderr)

    if args.json:
        payload = report.to_dict()
        if diff_result is not None:
            payload["perturbation_diff"] = diff_result.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        print(render_text(report))
        if diff_result is not None:
            verdict = ("RACES CONFIRMED" if diff_result.races_confirmed
                       else "no divergence")
            sanitizer = diff_result.sanitizer
            suspects = (sanitizer.conflict_groups
                        if sanitizer is not None else 0)
            print(f"perturbation diff [{diff_result.strategy}]: "
                  f"{diff_result.fields_compared} fields x "
                  f"{len(diff_result.orders)} perturbed orders "
                  f"({', '.join(diff_result.orders)}): {verdict}; "
                  f"{suspects} suspect tie groups")
    threshold = (Severity.WARNING if args.fail_on == "warning"
                 else Severity.ERROR)
    return report.exit_code_at(threshold)


def _cmd_faults(args: argparse.Namespace) -> int:
    plan = FaultPlan.parse(args.fault, seed=args.seed, horizon=args.horizon)
    model = model_for_billions(args.size)
    placement = PLACEMENTS[args.placement]

    baseline_cluster = strategy_cluster(args.strategy, args.nodes, placement)
    baseline = run_training(baseline_cluster, make_strategy(args.strategy),
                            model, iterations=args.iterations,
                            placement=placement)
    faulted_cluster = strategy_cluster(args.strategy, args.nodes, placement)
    faulted = run_training(faulted_cluster, make_strategy(args.strategy),
                           model, iterations=args.iterations,
                           placement=placement, fault_plan=plan)
    report = degradation_report(
        baseline, faulted, plan,
        monitor=BandwidthMonitor(faulted_cluster),
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_table(
            ["metric", "baseline", "faulted"],
            [["iteration (s)", report["baseline"]["iteration_time_s"],
              report["faulted"]["iteration_time_s"]],
             ["TFLOP/s", report["baseline"]["tflops_per_gpu"],
              report["faulted"]["tflops_per_gpu"]],
             ["total time (s)", report["baseline"]["total_time_s"],
              report["faulted"]["total_time_s"]]],
            title=f"degraded-fabric run: {args.strategy} (seed {plan.seed})",
        ))
        print()
        print(f"slowdown: {report['slowdown']:.4g}x   "
              f"throughput retained: {report['throughput_retained']:.1%}")
        for event in plan.events:
            print(f"  fault: {event.kind} on {event.target} "
                  f"@ {event.start:.6g}s for {event.duration:.6g}s "
                  f"(magnitude {event.magnitude:g})")
        windows = report.get("degraded_windows", {})
        for cls, spans in sorted(windows.items()):
            joined = ", ".join(f"[{s:.4g}, {e:.4g}]" for s, e in spans)
            print(f"  degraded {cls}: {joined}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(args.id, quick=not args.full)
    print(result.rendered)
    if args.json:
        print()
        print(json.dumps(result.rows, indent=2, default=str))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulator reproduction of the ISPASS'24 DeepSpeed "
                    "bandwidth characterization study",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="simulate one training configuration")
    run.add_argument("--strategy", choices=sorted(ALL_STRATEGIES),
                     default="zero2")
    run.add_argument("--size", type=float, default=1.4,
                     help="model size in billions of parameters")
    run.add_argument("--nodes", type=int, default=1, choices=(1, 2))
    run.add_argument("--iterations", type=int, default=4)
    run.add_argument("--fidelity", choices=FIDELITIES,
                     default="full",
                     help="hybrid simulates a steady window and "
                          "extrapolates the remaining iterations "
                          "(falls back to full when not steady)")
    run.add_argument("--placement", choices=sorted(PLACEMENTS), default="B")
    run.add_argument("--leak-check", action="store_true",
                     help="attach the runtime leak sanitizer and fail "
                          "the run on outstanding pool/ledger balance "
                          "at teardown")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="record a structured execution trace and write "
                          "it as Perfetto-loadable Chrome Trace JSON")
    run.add_argument("--json", action="store_true",
                     help="emit the full machine-readable RunMetrics "
                          "summary (same schema as save_metrics)")
    run.set_defaults(func=_cmd_run)

    serve = sub.add_parser(
        "serve", help="simulate one inference serving run "
                      "(continuous batching on the shared fabric model)")
    serve.add_argument("--size", type=float, default=1.4,
                       help="model size in billions of parameters")
    serve.add_argument("--gpus", type=int, default=4,
                       help="tensor-parallel degree of the instance")
    serve.add_argument("--nodes", type=int, default=1,
                       help="nodes the TP group spans")
    serve.add_argument("--rate", type=float, default=4.0,
                       help="open-loop Poisson arrival rate (requests/s)")
    serve.add_argument("--requests", type=int, default=32,
                       help="number of requests to serve")
    serve.add_argument("--seed", type=int, default=7,
                       help="arrival-stream seed")
    serve.add_argument("--mix", choices=sorted(REQUEST_MIXES),
                       default="chat",
                       help="request length mix")
    serve.add_argument("--batching", choices=BATCHING_POLICIES,
                       default="continuous")
    serve.add_argument("--max-batch-tokens", type=int, default=8192)
    serve.add_argument("--max-batch-requests", type=int, default=16)
    serve.add_argument("--kv-fraction", type=float, default=0.9,
                       help="fraction of post-weights free GPU memory "
                            "given to the KV-cache budget")
    serve.add_argument("--slo-ttft", type=float, default=1.0,
                       help="TTFT SLO target (seconds)")
    serve.add_argument("--slo-tpot", type=float, default=0.2,
                       help="TPOT SLO target (seconds)")
    serve.add_argument("--leak-check", action="store_true",
                       help="audit KV/weights byte conservation at "
                            "teardown")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="write the serving trace as Chrome Trace "
                            "JSON")
    serve.add_argument("--json", action="store_true",
                       help="emit the full InferenceReport payload")
    serve.set_defaults(func=_cmd_serve)

    campaign = sub.add_parser(
        "campaign", help="run cached experiment sweeps on a worker pool")
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)
    campaign_run = campaign_sub.add_parser(
        "run", help="expand a sweep into jobs and execute them through "
                    "the result cache")
    campaign_run.add_argument("--spec", default=None, metavar="PATH",
                              help="JSON campaign spec file (overrides "
                                   "the sweep flags below)")
    campaign_run.add_argument("--name", default="campaign")
    campaign_run.add_argument("--experiment", action="append",
                              choices=sorted(EXPERIMENTS), metavar="ID",
                              help="experiment id to include; repeatable")
    campaign_run.add_argument("--strategy", action="append",
                              choices=sorted(ALL_STRATEGIES),
                              metavar="NAME",
                              help="strategy for the run sweep; repeatable")
    campaign_run.add_argument("--size", action="append", type=float,
                              metavar="BILLIONS",
                              help="model size for the run sweep; "
                                   "repeatable")
    campaign_run.add_argument("--nodes", action="append", type=int,
                              metavar="N",
                              help="node count for the run sweep; "
                                   "repeatable (default 1)")
    campaign_run.add_argument("--placement", choices=sorted(PLACEMENTS),
                              default="B")
    campaign_run.add_argument("--iterations", type=int, default=3)
    campaign_run.add_argument("--full", action="store_true",
                              help="paper-length profiles instead of "
                                   "quick ones")
    campaign_run.add_argument("--workers", type=int, default=1,
                              help="worker processes (1 = inline)")
    campaign_run.add_argument("--cache-dir", default=".repro-cache",
                              help="content-addressed result cache "
                                   "directory")
    campaign_run.add_argument("--no-cache", action="store_true",
                              help="recompute everything; don't read or "
                                   "write the cache")
    campaign_run.add_argument("--report", default=None, metavar="PATH",
                              help="write the campaign report as JSON")
    campaign_run.add_argument("--json", action="store_true")
    campaign_status = campaign_sub.add_parser(
        "status", help="cache statistics and integrity verification "
                       "(CMP0xx findings)")
    campaign_status.add_argument("--cache-dir", default=".repro-cache")
    campaign_status.add_argument("--json", action="store_true")
    campaign_gc = campaign_sub.add_parser(
        "gc", help="remove corrupt objects and objects cached by other "
                   "code versions")
    campaign_gc.add_argument("--cache-dir", default=".repro-cache")
    campaign.set_defaults(func=_cmd_campaign)

    cluster = sub.add_parser(
        "cluster", help="multi-tenant cluster service over the shared DES")
    cluster_sub = cluster.add_subparsers(dest="cluster_command",
                                         required=True)
    cluster_run = cluster_sub.add_parser(
        "run", help="admit a stream of jobs onto a shared N-node fabric")
    cluster_run.add_argument("--name", default="cluster")
    cluster_run.add_argument("--nodes", type=int, default=4,
                             help="fabric size (any N >= 1)")
    cluster_run.add_argument("--policy",
                             choices=("fifo", "sjf", "memory-aware"),
                             default="fifo")
    cluster_run.add_argument("--arrivals", default="poisson",
                             metavar="poisson|FILE.json",
                             help="'poisson' for a seeded open-loop "
                                  "stream, or a JSON trace file of "
                                  "{time, ...JobSpec} entries")
    cluster_run.add_argument("--rate-per-hour", type=float, default=1200.0,
                             help="Poisson arrival rate (jobs/hour)")
    cluster_run.add_argument("--jobs", type=int, default=12,
                             help="number of Poisson arrivals")
    cluster_run.add_argument("--seed", type=int, default=7,
                             help="arrival-stream seed")
    cluster_run.add_argument("--mix", default="default",
                             help="named job mix for Poisson arrivals")
    cluster_run.add_argument("--aging", type=float, default=0.0,
                             help="priority gained per queued second")
    cluster_run.add_argument("--leak-check", action="store_true",
                             help="audit byte conservation across all "
                                  "jobs' shared pools and ledgers")
    cluster_run.add_argument("--trace", default=None, metavar="PATH",
                             help="write the shared-machine cluster "
                                  "trace as Chrome Trace JSON")
    cluster_run.add_argument("--json", action="store_true",
                             help="emit the full ClusterReport payload")
    cluster.set_defaults(func=_cmd_cluster)

    search = sub.add_parser("search", help="largest model that fits")
    search.add_argument("--strategy", choices=sorted(ALL_STRATEGIES),
                        default="zero3")
    search.add_argument("--nodes", type=int, default=1, choices=(1, 2))
    search.add_argument("--placement", choices=sorted(PLACEMENTS),
                        default="B")
    search.add_argument("--json", action="store_true")
    search.set_defaults(func=_cmd_search)

    stress = sub.add_parser("stress", help="Fig. 3/4 stress tests")
    stress.add_argument("--duration", type=float, default=5.0)
    stress.set_defaults(func=_cmd_stress)

    topology = sub.add_parser("topology", help="render the cluster wiring")
    topology.add_argument("--nodes", type=int, default=2, choices=(1, 2))
    topology.add_argument("--placement", choices=sorted(PLACEMENTS),
                          default="B")
    topology.add_argument("--json", action="store_true",
                          help="emit the wiring as structured JSON "
                               "(devices, links, bandwidths)")
    topology.set_defaults(func=_cmd_topology)

    trace = sub.add_parser(
        "trace", help="inspect, validate, and compare exported traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_diff = trace_sub.add_parser(
        "diff", help="field-compare two traces (span counts, busy "
                     "times, per-link bytes, counter integrals)")
    trace_diff.add_argument("a")
    trace_diff.add_argument("b")
    trace_summary = trace_sub.add_parser(
        "summary", help="print a trace's flattened summary table")
    trace_summary.add_argument("path")
    trace_check = trace_sub.add_parser(
        "check", help="validate a trace file against the Chrome Trace "
                      "Event schema rules")
    trace_check.add_argument("path")
    trace.set_defaults(func=_cmd_trace)

    experiment = sub.add_parser("experiment",
                                help="reproduce one table/figure")
    experiment.add_argument("id", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--full", action="store_true")
    experiment.add_argument("--json", action="store_true")
    experiment.set_defaults(func=_cmd_experiment)

    faults = sub.add_parser(
        "faults", help="simulate a run on a degraded fabric and report "
                       "the graceful-degradation curve")
    faults.add_argument("--strategy", choices=sorted(ALL_STRATEGIES),
                        default="zero3")
    faults.add_argument("--fault", action="append", required=True,
                        metavar="SPEC",
                        help="fault spec 'target:kind@t=2ms,dur=1ms"
                             "[,mag=0.5][,period=5ms]'; repeatable; kinds: "
                             "down, degrade, flap, straggler, nvme_slow")
    faults.add_argument("--seed", type=int, default=0,
                        help="seed for flap-jitter reproducibility")
    faults.add_argument("--horizon", type=float, default=None,
                        help="optional simulated-time bound the lint "
                             "checks fault windows against (seconds)")
    faults.add_argument("--size", type=float, default=1.4,
                        help="model size in billions of parameters")
    faults.add_argument("--nodes", type=int, default=2, choices=(1, 2))
    faults.add_argument("--iterations", type=int, default=4)
    faults.add_argument("--placement", choices=sorted(PLACEMENTS),
                        default="B")
    faults.add_argument("--json", action="store_true")
    faults.set_defaults(func=_cmd_faults)

    analyze = sub.add_parser(
        "analyze", help="static pre-run analysis of one configuration")
    analyze.add_argument("--strategy", choices=sorted(ALL_STRATEGIES),
                         default="zero2")
    analyze.add_argument("--size", type=float, default=1.4,
                         help="model size in billions of parameters")
    analyze.add_argument("--nodes", type=int, default=1, choices=(1, 2))
    analyze.add_argument("--placement", choices=sorted(PLACEMENTS),
                         default="B")
    analyze.add_argument("--tensor-parallel", type=int, default=None,
                         help="lint an explicit tensor-parallel degree")
    analyze.add_argument("--pipeline-parallel", type=int, default=None,
                         help="lint an explicit pipeline-parallel degree")
    analyze.add_argument("--self", action="store_true",
                         help="run the source lints (unit hygiene + "
                              "DET0xx determinism hazards) over the "
                              "simulator's own source instead")
    analyze.add_argument("--dims", action="store_true",
                         help="run the interprocedural dimensional "
                              "analysis (DIM0xx unit checks) over the "
                              "simulator's own source instead")
    analyze.add_argument("--root", default=None, metavar="DIR",
                         help="alternative source tree for --self or "
                              "--dims (defaults to the installed repro "
                              "package)")
    analyze.add_argument("--sanitize", action="store_true",
                         help="run the configuration under the schedule "
                              "sanitizer and diff it across legal "
                              "tie-order perturbations (race detector)")
    analyze.add_argument("--seed", type=int, default=7,
                         help="seed for the shuffled tie order "
                              "(--sanitize)")
    analyze.add_argument("--iterations", type=int, default=2,
                         help="simulated iterations per sanitized run "
                              "(--sanitize)")
    analyze.add_argument("--fail-on", choices=("error", "warning"),
                         default="error",
                         help="lowest severity that makes the exit "
                              "status non-zero")
    analyze.add_argument("--baseline", default=None, metavar="PATH",
                         help="JSON baseline of accepted findings to "
                              "filter out")
    analyze.add_argument("--update-baseline", action="store_true",
                         help="write the current findings to --baseline "
                              "and exit")
    analyze.add_argument("--json", action="store_true")
    analyze.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into head & friends; not an error.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
