"""Seeded inputs and the checked operations of each workload.

A workload is a list of operations; one operation is one call into a
public entry point — :func:`repro.api.run_spec` (with a cluster built by
:func:`repro.api.build_cluster`, so traced runs can be reconciled against
its live ledgers), :func:`repro.cluster.run_cluster` or
:func:`repro.inference.run_inference`.  Inputs are a pure function of the
seed; the simulator only ever sees the generated specs.

Each workload has a fixed *skeleton*, drawn once from
:data:`SKELETON_SEED`: how much work there is and of what kind.  The run
seed perturbs the work inside it without changing its amount: arrival
times move within their strata, and fault targets, magnitudes and
timing change.  Independent draws change the amount of work too much:
six seeds of ``run_cluster``'s own Poisson generator, 96 jobs of the
default mix, simulated 160k-219k events, a spread wider than any
regression bound.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, List, Sequence, Tuple, TypeVar, Union

from repro.analysis.determinism.differ import round_sig
from repro.api import RunSpec, build_cluster, run_spec
from repro.cluster import JOB_MIXES, ClusterScenario, run_cluster
from repro.core.results import headline_from_payload, metrics_to_dict
from repro.inference import REQUEST_MIXES, InferenceSpec, run_inference
from repro.trace.reconcile import reconcile_findings

Spec = Union[RunSpec, ClusterScenario, InferenceSpec]
_T = TypeVar("_T")

#: Seed of the skeleton every run of a workload shares.
SKELETON_SEED = 0

#: The middle share of its stratum within which a seed places each gap.
ARRIVAL_JITTER = 0.1

#: The paper's collective-heavy dual-node configuration, long enough for
#: ledger growth to show in ``peak_rss_mb``.
TRAIN_SPEC = RunSpec("zero3", size_billions=0.7, nodes=2, iterations=40)

CLUSTER_JOBS = 40
CLUSTER_RATE_PER_S = 12000.0 / 3600.0

SERVE_REQUESTS = 400
SERVE_RATE_PER_S = 8.0

#: Pinned rather than read from the strategy registry, so a strategy
#: added later does not silently change the workload.
SWEEP_STRATEGIES = (
    "ddp", "megatron", "zero1", "zero2", "zero3",
    "zero1_opt_cpu", "zero2_opt_cpu", "zero3_opt_cpu_param_cpu",
    "zero3_opt_nvme", "zero3_opt_nvme_param_nvme",
)
SWEEP_SIZES = (0.35, 0.7, 1.4, 2.8, 5.6, 11.0)
SWEEP_ITERATIONS = (3, 4, 5, 6)
#: Single-node fault kinds; an NVMe slowdown is a no-op for strategies
#: that do not touch NVMe.
SWEEP_FAULTS = ("degrade", "flap", "straggler", "nvme_slow")

#: Result fields that count how the simulator did its work rather than
#: what it simulated.  Fingerprints leave them out, so a faster allocator
#: or more event folding is not a wrong answer.
IMPLEMENTATION_COUNTERS = frozenset({
    "events_processed", "events_folded", "events_extrapolated",
})


def skeleton() -> random.Random:
    return random.Random(SKELETON_SEED)


def balanced(mix: Sequence[Tuple[float, _T]], count: int,
             rng: random.Random) -> List[_T]:
    """``count`` values in exact proportion to the mix weights, shuffled.

    Quotas are rounded by largest remainder (ties go to the earlier mix
    entry), so the multiset depends only on ``count``.
    """
    total = sum(weight for weight, _ in mix)
    quotas = [weight / total * count for weight, _ in mix]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(range(len(mix)),
                          key=lambda index: counts[index] - quotas[index])
    for index in by_remainder[:count - sum(counts)]:
        counts[index] += 1
    values = [mix[index][1] for index, times in enumerate(counts)
              for _ in range(times)]
    rng.shuffle(values)
    return values


def arrival_times(rate_per_s: float, count: int,
                  rng: random.Random) -> List[float]:
    """Open-loop arrival times with stratified exponential gaps.

    Gap ``k`` is the exponential quantile of a point inside one of
    ``count`` equal probability strata; the skeleton fixes which stratum
    each gap uses, and ``rng`` places the point within the middle
    :data:`ARRIVAL_JITTER` of the stratum.  Wider jitter flips the
    FIFO packing of ``cluster_fifo`` between two schedules (5 or 8 jobs at
    once, 13 or 16 simulated seconds, 79 or 74 MB peak), which would make
    the amount of work depend on the seed.
    """
    strata = list(range(count))
    skeleton().shuffle(strata)
    gaps = [-math.log(1.0 - (stratum + 0.5 + ARRIVAL_JITTER
                             * (rng.random() - 0.5)) / count) / rate_per_s
            for stratum in strata]
    return list(itertools.accumulate(gaps))


def train_dual_zero3(seed: int) -> List[Spec]:
    """One long full-fidelity run; the input takes no seed."""
    return [TRAIN_SPEC]


def cluster_fifo(seed: int) -> List[Spec]:
    """The default job mix, FIFO on a 4-node fabric at 12000 jobs/h."""
    templates = balanced(JOB_MIXES["default"], CLUSTER_JOBS, skeleton())
    times = arrival_times(CLUSTER_RATE_PER_S, CLUSTER_JOBS,
                          random.Random(seed))
    jobs = tuple({"time": time, "name": f"job-{index}", **template}
                 for index, (time, template)
                 in enumerate(zip(times, templates)))
    return [ClusterScenario(name="bench", nodes=4, policy="fifo",
                            arrivals="trace", trace_jobs=jobs)]


def serve_chat(seed: int) -> List[Spec]:
    """Chat traffic at 8 req/s on one TP-2 instance, continuous batching."""
    shapes = balanced(REQUEST_MIXES["chat"], SERVE_REQUESTS, skeleton())
    times = arrival_times(SERVE_RATE_PER_S, SERVE_REQUESTS,
                          random.Random(seed))
    requests = tuple({"time": time, "name": f"req-{index}", **shape}
                     for index, (time, shape)
                     in enumerate(zip(times, shapes)))
    return [InferenceSpec(size_billions=0.7, gpus=2, nodes=1,
                          arrivals="trace", trace_requests=requests,
                          batching="continuous")]


def single_node_fault(kind: str, rng: random.Random) -> str:
    """One fault spec string of ``kind`` on single-node hardware."""
    if kind == "degrade":
        return f"node0/xgmi:degrade@t=0,dur=1000s,mag={rng.uniform(0.2, 0.8):.2f}"
    if kind == "flap":
        return (f"node0/xgmi:flap@t={rng.uniform(0.0, 0.5):.3f},dur=0.5,"
                f"period={rng.uniform(0.05, 0.1):.3f}")
    if kind == "straggler":
        return (f"node0/gpu{rng.randrange(4)}:straggler@t=0,dur=1000s,"
                f"mag={rng.uniform(0.1, 0.5):.2f}")
    return (f"node0/nvme{rng.randrange(1, 3)}:nvme_slow@t=0,dur=1000s,"
            f"mag={rng.uniform(1.0, 4.0):.2f}")


def sweep_1node(seed: int) -> List[Spec]:
    """Every (strategy, size) cell once, as many short single-node runs.

    The skeleton gives each cell its iterations (3-6) and fidelity in
    equal shares, picks the leak-checked quarter, the traced quarter and
    the faulted fifth with the fault kind, and orders the runs (peak
    memory depends on the order).  The seed decides the fault details.
    """
    shape = skeleton()
    count = len(SWEEP_STRATEGIES) * len(SWEEP_SIZES)
    iterations = balanced([(1, n) for n in SWEEP_ITERATIONS], count, shape)
    fidelity = balanced([(1, "full"), (1, "hybrid")], count, shape)
    leak_check = balanced([(1, True), (3, False)], count, shape)
    trace = balanced([(1, True), (3, False)], count, shape)
    faults = balanced([(1, kind) for kind in SWEEP_FAULTS]
                      + [(4 * len(SWEEP_FAULTS), None)], count, shape)
    rng = random.Random(seed)
    specs: List[Spec] = []
    for index, (strategy, size) in enumerate(
            itertools.product(SWEEP_STRATEGIES, SWEEP_SIZES)):
        fault = faults[index]
        specs.append(RunSpec(
            strategy, size_billions=size, iterations=iterations[index],
            fidelity=fidelity[index], leak_check=leak_check[index],
            trace=trace[index],
            faults=(single_node_fault(fault, rng),) if fault else (),
            fault_seed=rng.randrange(1 << 16) if fault else 0,
        ))
    shape.shuffle(specs)
    return specs


GENERATORS = {
    "train_dual_zero3": train_dual_zero3,
    "cluster_fifo": cluster_fifo,
    "serve_chat": serve_chat,
    "sweep_1node": sweep_1node,
}


def generate(workload: str, seed: int) -> List[Spec]:
    """The workload's operations for ``seed``."""
    return GENERATORS[workload](seed)


def execute(spec: Spec):
    """Run one operation; returns ``(cluster, result)``.

    The cluster is returned only for training runs, whose traces are
    reconciled against its ledgers after the timed call.
    """
    if isinstance(spec, RunSpec):
        cluster = build_cluster(spec)
        return cluster, run_spec(spec, cluster=cluster)
    if isinstance(spec, ClusterScenario):
        return None, run_cluster(spec)
    return None, run_inference(spec)


def fingerprint(headline: Dict[str, object]) -> Dict[str, object]:
    """Headline fields rounded to 6 significant figures, without the
    implementation counters."""
    return {
        key: round_sig(value) if isinstance(value, float) else value
        for key, value in headline.items()
        if key.rsplit(".", 1)[-1] not in IMPLEMENTATION_COUNTERS
    }


def check(spec: Spec, cluster, result) -> Tuple[Dict[str, object],
                                                 List[str], int, int]:
    """The invariants one finished operation must meet.

    Returns ``(fingerprint, problems, events, folded)``; ``events`` and
    ``folded`` are the engine's result counters.
    """
    problems: List[str] = []
    if isinstance(spec, RunSpec):
        payload = metrics_to_dict(result)
        payload.pop("leaks")
        if spec.leak_check and not result.leaks.clean:
            problems.append(f"leak check found "
                            f"{result.leaks.leaked_bytes:.6g} leaked bytes")
        if spec.trace:
            problems.extend(f"{finding.code} {finding.message}"
                            for finding in reconcile_findings(result.trace,
                                                              cluster))
        execution = result.execution
        return (fingerprint(headline_from_payload(payload)), problems,
                execution.events_processed, execution.events_folded)
    report = result.report
    if isinstance(spec, ClusterScenario):
        expected, submitted, completed = (
            len(spec.expand_arrivals()), report.jobs_submitted,
            report.jobs_completed)
    else:
        expected, submitted, completed = (
            len(spec.expand_requests()), report.requests_submitted,
            report.requests_completed)
    if not expected == submitted == completed:
        problems.append(f"{completed} of {submitted} completed, "
                        f"{expected} generated")
    return (fingerprint(report.headline()), problems,
            report.events_processed, report.events_folded)
