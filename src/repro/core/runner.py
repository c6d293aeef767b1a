"""High-level training-run driver: plan memory, execute, measure.

:func:`run_training` is the package's main entry point: given a cluster,
a strategy, and a model, it applies the strategy's memory plan to the
cluster's pools (raising :class:`~repro.errors.OutOfMemoryError` when the
model does not fit — the signal the size search uses), compiles and runs
the iteration schedule on the DES, and returns a :class:`RunMetrics`
bundle holding everything the paper's tables and figures need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .. import calibration
from ..analysis.api import analyze_run_config
from ..collectives.nccl import RetryPolicy
from ..errors import ConfigurationError, OutOfMemoryError
from ..faults.plan import FaultPlan
from ..hardware.cluster import Cluster
from ..hardware.link import LinkClass
from ..hardware.nvme import Raid0Volume
from ..model.config import ModelConfig, TrainingConfig
from ..model.params import total_parameters
from ..parallel.placement import DEFAULT_PLACEMENT, PlacementConfig
from ..parallel.strategy import MemoryPlan, StrategyContext, TrainingStrategy
from ..runtime.executor import ExecutionResult, Executor
from ..sim.engine import TieOrder
from ..sim.fastpath import (
    FastpathReport,
    extrapolate_execution,
    hybrid_simulated_iterations,
    is_steady,
    validate_fidelity,
)
from ..sim.leaksan import LeakReport
from ..sim.probes import RunProbes
from ..sim.sanitizer import SanitizerReport
from ..telemetry.bandwidth import BandwidthMonitor, BandwidthStats
from ..telemetry.flops_profiler import FlopsProfiler, ThroughputReport
from ..telemetry.memory import MemoryReport, snapshot
from ..trace.model import Trace
from ..trace.recorder import TraceRecorder, build_trace
from ..units import GB

if TYPE_CHECKING:  # import cycle: repro.api.build materializes via us
    from ..api.spec import RunSpec


@dataclass
class RunMetrics:
    """Everything measured for one training configuration."""

    strategy_name: str
    model_parameters: int
    num_nodes: int
    num_gpus: int
    throughput: ThroughputReport
    memory: MemoryReport
    bandwidth: Dict[LinkClass, BandwidthStats]
    execution: ExecutionResult
    measurement_window: Tuple[float, float]
    #: populated only for traced runs (``run_training(..., trace=True)``)
    trace: Optional[Trace] = None
    #: the canonical spec this run was materialized from, when it came
    #: through :func:`repro.api.run_spec` — what result caching keys on
    spec: Optional["RunSpec"] = None
    #: what the hybrid fast path did, for runs requested at
    #: ``fidelity="hybrid"`` (``None`` for plain full-fidelity runs)
    fastpath: Optional[FastpathReport] = None

    @property
    def tflops(self) -> float:
        return self.throughput.tflops

    @property
    def iteration_time(self) -> float:
        return self.throughput.mean_iteration_time

    @property
    def billions_of_parameters(self) -> float:
        return self.model_parameters / GB

    @property
    def sanitizer(self) -> Optional[SanitizerReport]:
        """The schedule-sanitizer report, for sanitized runs only."""
        return self.execution.sanitizer

    @property
    def leaks(self) -> Optional[LeakReport]:
        """The leak-sanitizer report, for leak-checked runs only."""
        return self.execution.leaks


def apply_memory_plan(cluster: Cluster, plan: MemoryPlan,
                      swap_volumes: Optional[Dict[int, Raid0Volume]] = None
                      ) -> None:
    """Charge the plan's per-rank bytes to the cluster's memory pools.

    Raises :class:`~repro.errors.OutOfMemoryError` on the first pool that
    cannot satisfy an allocation — the CUDA-OOM analog.
    """
    pinned_per_pool: Dict[str, float] = {}
    for rank in range(cluster.num_gpus):
        gpu = cluster.gpu(rank)
        for label, num_bytes in plan.gpu.items():
            gpu.memory.allocate(label, num_bytes)
        dram = cluster.dram_for_rank(rank)
        for label, num_bytes in plan.cpu.items():
            dram.memory.allocate(label, num_bytes)
            if label in calibration.PINNED_LABELS:
                pinned = pinned_per_pool.get(dram.name, 0.0) + num_bytes
                pinned_per_pool[dram.name] = pinned
                ceiling = (dram.memory.capacity_bytes
                           * calibration.PINNED_MEMORY_FRACTION)
                if pinned > ceiling:
                    raise OutOfMemoryError(
                        f"{dram.name}: pinned allocations "
                        f"({pinned / GB:.0f} GB) exceed the page-locked "
                        f"ceiling ({ceiling / GB:.0f} GB)",
                        device=dram.name,
                        required_bytes=pinned,
                        available_bytes=ceiling,
                    )
        if plan.nvme:
            if not swap_volumes or rank not in swap_volumes:
                raise ConfigurationError(
                    f"rank {rank} plans NVMe residency but has no swap volume"
                )
            volume = swap_volumes[rank]
            for label, num_bytes in plan.nvme.items():
                per_drive = num_bytes / len(volume.drives)
                for drive in volume.drives:
                    drive.memory.allocate(label, per_drive)


def release_memory_plan(cluster: Cluster, plan: MemoryPlan,
                        swap_volumes: Optional[Dict[int, Raid0Volume]] = None
                        ) -> None:
    """Return every byte :func:`apply_memory_plan` charged.

    The inverse walks distinct *pools* rather than ranks: several ranks
    can share one DRAM (or NVMe) pool, where their same-label charges
    accumulated, and ``free`` releases a label's whole balance at once.
    Labels are freed with ``missing_ok=True`` because a plan's label set
    spans pool kinds (GPU labels are absent from DRAM pools and vice
    versa) — the documented idempotent-teardown contract of
    :meth:`~repro.hardware.devices.MemoryPool.free`.
    """
    pools: Dict[int, object] = {}
    for rank in range(cluster.num_gpus):
        gpu_pool = cluster.gpu(rank).memory
        dram_pool = cluster.dram_for_rank(rank).memory
        pools.setdefault(id(gpu_pool), gpu_pool)
        pools.setdefault(id(dram_pool), dram_pool)
    if swap_volumes:
        for volume in swap_volumes.values():
            for drive in volume.drives:
                pools.setdefault(id(drive.memory), drive.memory)
    labels = (*plan.gpu, *plan.cpu, *plan.nvme)
    for pool in pools.values():
        for label in labels:
            pool.free(label, missing_ok=True)


def run_training(cluster: Cluster, strategy: TrainingStrategy,
                 model: ModelConfig, *,
                 training: Optional[TrainingConfig] = None,
                 iterations: int = 3,
                 warmup_iterations: int = 1,
                 placement: Optional[PlacementConfig] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 tie_order: Optional[TieOrder] = None,
                 sanitize: bool = False,
                 trace: bool = False,
                 leak_check: bool = False,
                 preflight: bool = True,
                 fidelity: str = "full") -> RunMetrics:
    """Simulate ``iterations`` optimizer steps and measure everything.

    The first ``warmup_iterations`` are excluded from throughput and
    bandwidth statistics, mirroring the paper's methodology of collecting
    from the fifth of ten iterations onward (Section III-B1).

    ``fault_plan`` injects deterministic hardware faults into the run
    (see :mod:`repro.faults`); ``retry_policy`` tunes how collectives
    ride out transient link outages.

    The engine, the flow network and every opt-in instrument below come
    from one :class:`~repro.sim.probes.RunProbes`, which detaches its
    hooks when the run ends, also when it raises.

    ``tie_order`` perturbs how the engine orders same-timestamp events (a
    legal schedule permutation; see :class:`~repro.sim.engine.TieOrder`)
    and ``sanitize=True`` attaches the schedule sanitizer, whose report
    lands in ``metrics.sanitizer`` — both are the determinism subsystem's
    hooks (:mod:`repro.analysis.determinism`).

    ``trace=True`` attaches a :class:`~repro.trace.TraceRecorder` and
    assembles a full :class:`~repro.trace.model.Trace` (kernel/collective/
    flow/fault spans, per-link accounts, counter tracks) into
    ``metrics.trace``.  Tracing is schedule-invariant: every headline
    metric and ledger value is identical with it on or off.

    ``leak_check=True`` audits the run at teardown
    (:func:`~repro.sim.leaksan.audit_leaks`): after teardown returns the
    memory plan's bytes, every pool label still holding bytes and every
    flow still active is a leak.  The report lands in ``metrics.leaks``;
    a conserving run reports ``clean``.  The audit only reads, so the
    run is identical with it on or off.

    Unless ``preflight=False``, the cheap static-analysis passes run
    first and any error-severity finding aborts the run before the DES
    starts (see :mod:`repro.analysis`).  The static memory-capacity
    prediction is not part of the hook: fitting stays the runtime
    :class:`~repro.errors.OutOfMemoryError` signal the size search
    binary-searches on.

    ``fidelity`` selects the simulation fidelity, ``"full"`` unless the
    caller passes another; nothing else sets it.  ``"hybrid"``
    simulates ``warmup + 2`` iterations on
    the DES and, once the measured iterations are confirmed periodic,
    extrapolates the remaining ones analytically — ledgers, rank-lane
    and trace spans, and iteration times all extended consistently (see
    :mod:`repro.sim.fastpath`).  A hybrid request that cannot be
    honoured (fault plan present, too few iterations, steady state not
    detected) silently falls back to full fidelity;
    ``metrics.fastpath`` records what actually happened.

    An NVMe-offloading plan swaps to the volumes ``placement`` (or the
    default placement) builds on ``cluster``.

    New code should prefer a :class:`~repro.api.RunSpec` through
    :func:`repro.api.run_spec`, which stamps the spec into
    ``metrics.spec``.  This function stays the object-level entry point
    for callers that hold live objects no spec can name: wrapped or
    resized strategies, custom pipeline schedules, prebuilt clusters and
    generated fault plans.
    """
    if training is None:
        training = TrainingConfig()
    if iterations <= warmup_iterations:
        raise ConfigurationError(
            "need more iterations than warmup iterations"
        )
    fastpath_report: Optional[FastpathReport] = None
    sim_iterations = iterations
    if validate_fidelity(fidelity) == "hybrid":
        measured = hybrid_simulated_iterations(iterations, warmup_iterations)
        if fault_plan is not None:
            # Faults perturb specific iterations; the steady window the
            # extrapolator would replicate is not representative.
            fastpath_report = FastpathReport(
                "hybrid", False, iterations, 0, "fault plan present")
        elif measured >= iterations:
            fastpath_report = FastpathReport(
                "hybrid", False, iterations, 0, "too few iterations")
        else:
            sim_iterations = measured
    if preflight:
        analyze_run_config(
            cluster, strategy, model, training=training,
            placement=placement, fault_plan=fault_plan, cheap_only=True,
        ).raise_on_error("pre-run static analysis failed")
    cluster.reset()
    ctx = StrategyContext(cluster, model, training)
    plan = strategy.memory_plan(ctx)
    swap_volumes: Optional[Dict[int, Raid0Volume]] = None
    if plan.nvme:
        chosen = placement if placement is not None else DEFAULT_PLACEMENT
        swap_volumes = chosen.build_volumes(cluster)
    metrics: Optional[RunMetrics] = None
    with RunProbes(cluster, tie_order=tie_order, sanitize=sanitize,
                   trace=trace, leak_check=leak_check) as probes:
        apply_memory_plan(cluster, plan, swap_volumes)
        executor = Executor(
            cluster, strategy.build_schedule(ctx),
            traffic_profile=strategy.traffic_profile,
            swap_volumes=swap_volumes,
            internode_rate_efficiency=(
                strategy.calibration.internode_efficiency),
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            collective_sink=probes.recorder,
            engine=probes.engine,
            network=probes.network,
        )
        result = executor.run(sim_iterations)
        if (sim_iterations == iterations
                or is_steady(result.iteration_times, warmup_iterations)):
            if sim_iterations < iterations:
                # Hybrid: extend the measured run analytically — must
                # happen before any accounting that scales with total
                # time/iterations (profiler, host background, bandwidth
                # window, trace build).
                extrapolate_execution(cluster, result, probes.recorder,
                                      iterations)
                fastpath_report = FastpathReport(
                    "hybrid", True, sim_iterations,
                    iterations - sim_iterations)
            metrics = _measure(cluster, strategy, model, training, result,
                               warmup_iterations, probes.recorder)
            metrics.fastpath = fastpath_report
            if leak_check:
                # Return the plan's bytes; what the audit still finds
                # outstanding is a leak.
                release_memory_plan(cluster, plan, swap_volumes)
            result.sanitizer, result.leaks = probes.close()
    if metrics is None:
        # The measured window was not periodic: redo the run in full.
        metrics = run_training(
            cluster, strategy, model, training=training,
            iterations=iterations, warmup_iterations=warmup_iterations,
            placement=placement, fault_plan=fault_plan,
            retry_policy=retry_policy, tie_order=tie_order,
            sanitize=sanitize, trace=trace, leak_check=leak_check,
            preflight=False, fidelity="full",
        )
        metrics.fastpath = FastpathReport(
            "hybrid", False, iterations, 0, "steady state not detected")
    return metrics


def _measure(cluster: Cluster, strategy: TrainingStrategy,
             model: ModelConfig, training: TrainingConfig,
             result: ExecutionResult, warmup_iterations: int,
             recorder: Optional[TraceRecorder]) -> RunMetrics:
    """Throughput, bandwidth, memory and (for a traced run) the trace of
    a finished run, before its teardown returns the plan's bytes."""
    profiler = FlopsProfiler(model, training, cluster.num_gpus,
                             warmup_iterations=warmup_iterations)
    for seconds in result.iteration_times:
        profiler.record_iteration(seconds)

    _record_host_background(cluster, result)

    window_start = sum(result.iteration_times[:warmup_iterations])
    window = (window_start, result.total_time)
    monitor = BandwidthMonitor(cluster)
    bandwidth = monitor.table(*window)

    # Built after _record_host_background so the trace's link accounts
    # cover every ledger charge and reconcile exactly (see repro.trace).
    built_trace = (
        build_trace(
            cluster, result.total_time,
            spans=result.spans,
            recorder=recorder,
            faults=result.fault_events,
            counters=("device_mem", "host_mem"),
            meta={
                "strategy": strategy.name,
                "num_nodes": cluster.num_nodes,
                "num_gpus": cluster.num_gpus,
                "model_parameters": total_parameters(model),
                "total_time": result.total_time,
                "iterations": len(result.iteration_times),
            })
        if recorder is not None else None
    )

    return RunMetrics(
        strategy_name=strategy.name,
        model_parameters=total_parameters(model),
        num_nodes=cluster.num_nodes,
        num_gpus=cluster.num_gpus,
        throughput=profiler.report(),
        memory=snapshot(cluster),
        bandwidth=bandwidth,
        execution=result,
        measurement_window=window,
        trace=built_trace,
    )


def plan_only(cluster: Cluster, strategy: TrainingStrategy,
              model: ModelConfig, *,
              training: Optional[TrainingConfig] = None,
              placement: Optional[PlacementConfig] = None,
              swap_volumes: Optional[Dict[int, Raid0Volume]] = None
              ) -> MemoryReport:
    """Apply just the memory plan (no simulation) and snapshot usage.

    This is what the max-model-size search uses: fitting is purely a
    memory question, so skipping the DES keeps the search fast.
    """
    if training is None:
        training = TrainingConfig()
    cluster.reset()
    ctx = StrategyContext(cluster, model, training)
    plan = strategy.memory_plan(ctx)
    if plan.nvme and swap_volumes is None:
        chosen = placement if placement is not None else DEFAULT_PLACEMENT
        swap_volumes = chosen.build_volumes(cluster)
    apply_memory_plan(cluster, plan, swap_volumes)
    return snapshot(cluster)


def _record_host_background(cluster: Cluster, result: ExecutionResult) -> None:
    """Charge the ambient host traffic real counters see during training.

    Covers what the schedules do not model explicitly: data-loader
    workers streaming batches through DRAM, per-iteration input staging
    over the PCIe roots, and light inter-socket chatter — the source of
    the small but non-zero DRAM/xGMI/PCIe averages the paper's Table IV
    reports for GPU-resident configurations.
    """
    duration = result.total_time
    if duration <= 0:
        return
    iterations = max(1, len(result.iteration_times))
    topology = cluster.topology
    for node in cluster.nodes:
        for socket in range(2):
            dram_link = topology.link_between(node.cpus[socket].name,
                                              node.drams[socket].name)
            dram_link.ledger.record(
                0.0, duration,
                calibration.HOST_BACKGROUND_DRAM_BYTES_PER_S * duration,
            )
        xgmi_link = topology.link_between(node.cpus[0].name,
                                          node.cpus[1].name)
        xgmi_link.ledger.record(
            0.0, duration,
            calibration.HOST_BACKGROUND_XGMI_BYTES_PER_S * duration,
        )
    staging = calibration.INPUT_STAGING_BYTES_PER_ITERATION * iterations
    for rank in range(cluster.num_gpus):
        gpu = cluster.gpu(rank)
        node = cluster.node_of_rank(rank)
        pcie_link = topology.link_between(
            gpu.name, node.cpus[gpu.socket_index or 0].name)
        pcie_link.ledger.record(0.0, duration, staging)
