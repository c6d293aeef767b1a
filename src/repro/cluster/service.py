"""Wire it all together: one engine, one network, many job bodies.

:func:`run_cluster` builds the shared machine (a parametric N-node
:class:`~repro.hardware.cluster.Cluster`), takes its one
:class:`~repro.sim.engine.Engine` and one
:class:`~repro.sim.flows.FlowNetwork` from a
:class:`~repro.sim.probes.RunProbes`, schedules the scenario's
arrivals, and runs the :class:`~repro.cluster.daemon.SchedulerDaemon`
as a process among the job bodies.  Each granted job runs the existing
:class:`~repro.runtime.executor.Executor` as a generator
(:meth:`~repro.runtime.executor.Executor.execute`) against its
:class:`~repro.cluster.views.ClusterView`, with ``flow_tag=f"{job}/"``
so every flow in the shared ledgers and trace is attributable.

Ledger ownership: the run's probes attach the recorder and the leak
sanitizer to the shared network and pools and detach them when the run
ends; the service wires no hooks by hand.  Job bodies only charge and
release their own job-prefixed memory-plan labels through the existing
:func:`~repro.core.runner.apply_memory_plan` /
:func:`~repro.core.runner.release_memory_plan` walkers, so the
byte-conservation audit covers the whole multi-job run.  The trace is
assembled by the one :func:`~repro.trace.recorder.build_trace`.

Hybrid fidelity per job: the body simulates the measured window and,
once steady, *holds* its resources for the extrapolated remainder via a
timeout raced against the preemption event — occupancy and GPU-second
accounting stay exact while the event count stays small.  (Unlike
single-job hybrid runs, the analytic window does not replay link
traffic; the cluster report's contention figures come from the
simulated windows.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..analysis.liveness import check_liveness
from ..collectives.nccl import NcclCommunicator
from ..core.runner import apply_memory_plan, release_memory_plan
from ..core.search import model_for_billions
from ..errors import ConfigurationError, OutOfMemoryError
from ..experiments.common import make_strategy
from ..hardware.cluster import Cluster, ClusterSpec
from ..model.config import TrainingConfig
from ..parallel.strategy import MemoryPlan, StrategyContext
from ..runtime.executor import Executor
from ..sim.engine import Engine
from ..sim.fastpath import hybrid_simulated_iterations, is_steady
from ..sim.flows import FlowNetwork
from ..sim.leaksan import LeakReport
from ..sim.probes import RunProbes, named_tie_order
from ..trace.model import Span, Trace
from ..units import GIB
from ..trace.recorder import TraceRecorder, build_trace
from .daemon import SchedulerDaemon, checkpoint_seconds
from .jobs import JobRecord, JobSpec, JobStore
from .report import ClusterReport, build_report
from .scenario import ClusterScenario
from .views import ClusterView, pool_demand, probe_view


@dataclass
class ClusterRun:
    """Everything one cluster-service run produced."""

    report: ClusterReport
    trace: Optional[Trace] = None

    @property
    def leaks(self) -> Optional[LeakReport]:
        return self.report.leaks


class _JobCollectives:
    """Per-job recorder facade: tags collective phases with the job id.

    Flow spans come from the shared network recorder (already
    job-tagged via ``flow_tag``); collective phases are reported by the
    executor's gates with job-local comm names and ranks, so this shim
    prefixes the comm and maps ranks to the shared machine before
    forwarding to the shared recorder.
    """

    def __init__(self, job_id: str, view: ClusterView,
                 sink: TraceRecorder) -> None:
        self.job_id = job_id
        self.view = view
        self.sink = sink

    def collective_phase(self, comm: str, group_index: int, kind: str,
                         payload_bytes: float, launch_count: int,
                         ranks: Tuple[int, ...], start: float,
                         end: float) -> None:
        self.sink.collective_phase(
            f"{self.job_id}:{comm}", group_index, kind, payload_bytes,
            launch_count,
            tuple(self.view.global_rank(rank) for rank in ranks),
            start, end,
        )


class _ClusterService:
    """The live run state shared by arrivals, daemon, and job bodies."""

    def __init__(self, scenario: ClusterScenario, cluster: Cluster,
                 engine: Engine, network: FlowNetwork,
                 recorder: Optional[TraceRecorder]) -> None:
        self.scenario = scenario
        self.cluster = cluster
        self.engine = engine
        self.network = network
        self.recorder = recorder
        self.store = JobStore()
        #: memoized per-rank memory plans; pools are uniform, so the
        #: plan depends only on the workload and allocation size
        self._plans: Dict[Tuple[object, ...], MemoryPlan] = {}
        self.daemon: Optional[SchedulerDaemon] = None

    # -- planning --------------------------------------------------------------
    def demand_plan(self, record: JobRecord) -> MemoryPlan:
        return self.plan_for(record.spec)

    def plan_for(self, spec: JobSpec) -> MemoryPlan:
        key = (spec.workload, spec.strategy, spec.size_billions, spec.gpus,
               spec.micro_batch_per_gpu, spec.request_mix,
               spec.max_batch_tokens)
        plan = self._plans.get(key)
        if plan is None:
            if spec.workload == "inference":
                plan = self._serving_plan(spec)
            else:
                view = probe_view(self.cluster, spec.gpus)
                ctx = StrategyContext(
                    view, model_for_billions(spec.size_billions),
                    TrainingConfig(
                        micro_batch_per_gpu=spec.micro_batch_per_gpu),
                )
                plan = make_strategy(spec.strategy).memory_plan(ctx)
                if plan.nvme:
                    raise ConfigurationError(
                        f"job strategy {spec.strategy!r} plans NVMe "
                        f"residency; not schedulable on the shared service"
                    )
            self._plans[key] = plan
        return plan

    def _serving_plan(self, spec: JobSpec) -> MemoryPlan:
        """Per-rank demand of an inference job: weights + KV budget.

        The KV budget is sized so the token-level admission cap
        (``max_batch_tokens``) is the binding constraint: with the
        reserve-max policy a batch can never hold more than
        ``max_batch_tokens`` of context, so that many tokens of KV per
        rank is exactly enough for the cache never to block admission.
        Also front-loads the traffic-shape validation (mix name, every
        template admissible) so the daemon never waits on a job that
        could not serve a single request.
        """
        from ..inference.costmodel import PhaseCostModel
        from ..inference.requests import REQUEST_MIXES

        config = model_for_billions(spec.size_billions)
        if config.num_heads % spec.gpus:
            raise ConfigurationError(
                f"job {spec.name!r}: tensor parallelism needs gpus to "
                f"divide num_heads ({spec.gpus} does not divide "
                f"{config.num_heads})"
            )
        templates = REQUEST_MIXES.get(spec.request_mix)
        if templates is None:
            raise ConfigurationError(
                f"job {spec.name!r}: unknown request mix "
                f"{spec.request_mix!r}; known: {sorted(REQUEST_MIXES)}"
            )
        largest = max(template["prompt_tokens"] + template["output_tokens"]
                      for _, template in templates)
        if largest > spec.max_batch_tokens:
            raise ConfigurationError(
                f"job {spec.name!r}: mix {spec.request_mix!r} can draw a "
                f"{largest}-token request but max_batch_tokens is "
                f"{spec.max_batch_tokens}; it could never be admitted"
            )
        if largest > config.max_position_embeddings:
            raise ConfigurationError(
                f"job {spec.name!r}: mix {spec.request_mix!r} can draw a "
                f"{largest}-token context; the model serves at most "
                f"{config.max_position_embeddings}"
            )
        cost = PhaseCostModel(
            config, self.cluster.nodes[0].spec.gpu,
            tensor_parallel=spec.gpus,
        )
        return MemoryPlan(gpu={
            "weights": cost.weight_bytes_per_rank,
            "kv_budget": spec.max_batch_tokens * cost.kv_token_bytes_per_rank,
        })

    def validate(self, specs: List[JobSpec]) -> None:
        """Reject arrivals no schedule could ever place.

        Every job must fit an *empty* fabric (GPU shape and per-pool
        capacity); otherwise the daemon would wait on it forever and
        the run could never terminate.
        """
        for spec in specs:
            view = probe_view(self.cluster, spec.gpus)  # shape check
            for pool, amount in pool_demand(view, self.plan_for(spec)):
                if amount > pool.capacity_bytes + 1e-6:
                    raise ConfigurationError(
                        f"job {spec.name!r} ({spec.strategy}, "
                        f"{spec.size_billions}B on {spec.gpus} GPUs) can "
                        f"never fit: needs {amount / GIB:.1f} GiB of a "
                        f"{pool.capacity_bytes / GIB:.1f} GiB pool"
                    )

    # -- arrival callback ------------------------------------------------------
    def submit(self, spec: JobSpec) -> None:
        record = self.store.submit(spec, self.engine.now)
        assert self.daemon is not None
        self.daemon.submit(record)

    # -- job execution ---------------------------------------------------------
    def launch(self, record: JobRecord, view: ClusterView) -> None:
        self.engine.process(self._job_body(record, view),
                            name=f"{record.job_id}/body")

    def _job_body(self, record: JobRecord, view: ClusterView):
        if record.spec.workload == "inference":
            yield from self._serving_body(record, view)
            return
        engine = self.engine
        store = self.store
        daemon = self.daemon
        assert daemon is not None
        spec = record.spec
        job = record.job_id
        strategy = make_strategy(spec.strategy)
        model = model_for_billions(spec.size_billions)
        training = TrainingConfig(micro_batch_per_gpu=spec.micro_batch_per_gpu)
        ctx = StrategyContext(view, model, training)
        plan = strategy.memory_plan(ctx)
        prefixed = MemoryPlan(
            gpu={f"{job}/{label}": num_bytes
                 for label, num_bytes in plan.gpu.items()},
            cpu={f"{job}/{label}": num_bytes
                 for label, num_bytes in plan.cpu.items()},
        )
        try:
            apply_memory_plan(view, prefixed)
        except OutOfMemoryError as error:
            # The daemon's admission check makes this unreachable under
            # normal operation; kept as a terminal state, not a crash.
            store.mark_failed(record, engine.now, str(error))
            daemon.job_failed(record)
            return
        segment_start = engine.now
        record.preempt_event = engine.event()
        if record.completed_iterations:
            # Restart after preemption: restore the checkpoint before
            # training resumes, on the preempted tenant's bill.
            restore = checkpoint_seconds(plan)
            store.charge_checkpoint(record, restore)
            yield engine.timeout(restore)
        remaining = record.remaining_iterations
        sim_iterations = remaining
        if spec.fidelity == "hybrid":
            measured = hybrid_simulated_iterations(
                remaining, spec.warmup_iterations)
            if measured < remaining:
                sim_iterations = measured
        executor = Executor(
            view, strategy.build_schedule(ctx),
            traffic_profile=strategy.traffic_profile,
            internode_rate_efficiency=(
                strategy.calibration.internode_efficiency),
            engine=engine,
            network=self.network,
            flow_tag=f"{job}/",
            collective_sink=(
                _JobCollectives(job, view, self.recorder)
                if self.recorder is not None else None),
        )
        result = yield from executor.execute(
            sim_iterations,
            should_stop=lambda: record.preempt_requested,
        )
        completed = len(result.iteration_times)
        record.completed_iterations += completed
        if (sim_iterations < remaining
                and completed == sim_iterations
                and not record.preempt_requested
                and is_steady(result.iteration_times,
                              spec.warmup_iterations)):
            # Steady: hold the allocation for the analytic remainder,
            # but stay preemptible throughout the hold.
            period = result.iteration_times[-1]
            extra = remaining - sim_iterations
            hold_start = engine.now
            yield engine.any_of([
                engine.timeout(period * extra), record.preempt_event,
            ])
            if record.preempt_requested:
                elapsed = engine.now - hold_start
                record.completed_iterations += min(
                    extra, int(elapsed / period))
            else:
                record.completed_iterations += extra
        preempted = (record.preempt_requested
                     and record.remaining_iterations > 0)
        if preempted:
            # Checkpoint while still holding the allocation; the cost
            # lands on the preempted tenant.
            save = checkpoint_seconds(plan)
            store.charge_checkpoint(record, save)
            yield engine.timeout(save)
        self._collect_spans(record, view, executor)
        release_memory_plan(view, prefixed)
        store.charge_gpu_seconds(
            record, spec.gpus * (engine.now - segment_start))
        if preempted:
            store.mark_preempted(record, engine.now)
            daemon.job_preempted(record)
        else:
            store.mark_completed(record, engine.now)
            daemon.job_finished(record)

    def _serving_body(self, record: JobRecord, view: ClusterView):
        """An inference job: the serving scheduler as a cluster tenant.

        Imports are deferred: :mod:`repro.inference` imports cluster
        submodules (arrivals, views), so a top-level import here would
        close an import cycle through ``cluster/__init__``.

        One completed request is one unit of progress.  On preemption
        the in-flight batch is aborted (KV reservations released, no
        checkpoint — a serving instance has no optimizer state worth
        saving) and the *remaining* requests replay from the seeded
        stream at the next residency, re-timed to the restart instant.
        """
        from ..inference.batching import RequestRecord, ServingScheduler
        from ..inference.costmodel import PhaseCostModel
        from ..inference.kvcache import KvCache
        from ..inference.requests import poisson_requests

        engine = self.engine
        store = self.store
        daemon = self.daemon
        assert daemon is not None
        spec = record.spec
        job = record.job_id
        config = model_for_billions(spec.size_billions)
        cost = PhaseCostModel(config, self.cluster.nodes[0].spec.gpu,
                              tensor_parallel=spec.gpus)
        plan = self.plan_for(spec)
        weights_plan = MemoryPlan(
            gpu={f"{job}/weights": plan.gpu["weights"]})
        pools = [view.gpu(rank).memory for rank in range(view.num_gpus)]
        try:
            apply_memory_plan(view, weights_plan)
            kvcache = KvCache(
                pools,
                budget_per_rank=plan.gpu["kv_budget"],
                bytes_per_token_per_rank=cost.kv_token_bytes_per_rank,
                tag=f"{job}/",
            )
        except OutOfMemoryError as error:
            # Unreachable under the daemon's admission check (demand is
            # weights + KV budget); kept as a terminal state.
            store.mark_failed(record, engine.now, str(error))
            daemon.job_failed(record)
            return
        segment_start = engine.now
        record.preempt_event = engine.event()
        # Replay the seeded open-loop stream, skipping requests already
        # completed in earlier residencies; re-time so the first pending
        # request arrives at the restart instant and the rest keep their
        # seeded interarrival gaps.
        stream = poisson_requests(
            spec.request_rate_per_s, spec.iterations,
            seed=spec.request_seed, mix=spec.request_mix,
        )
        pending = stream[record.completed_iterations:]
        offset = engine.now - pending[0].time
        ranks = list(range(view.num_gpus))
        comm = None
        if view.num_gpus > 1:
            comm = NcclCommunicator(view, engine, self.network, ranks,
                                    label_prefix=f"{job}/")
        scheduler = ServingScheduler(
            engine, cost, kvcache,
            comm=comm,
            batching="continuous",
            max_batch_tokens=spec.max_batch_tokens,
            max_batch_requests=spec.max_batch_requests,
            span_ranks=(
                tuple(view.global_rank(rank) for rank in ranks)
                if self.recorder is not None else ()),
            collective_sink=(
                _JobCollectives(job, view, self.recorder)
                if self.recorder is not None else None),
            tag=f"{job}:",
        )
        records = [RequestRecord(replace(request, time=request.time + offset))
                   for request in pending]
        for request_record in records:
            engine.schedule_at(request_record.request.time,
                               scheduler.submit, request_record)
        stats = yield from scheduler.serve(
            records,
            should_stop=lambda: record.preempt_requested,
            stop_event=record.preempt_event,
        )
        record.completed_iterations += stats.completed
        preempted = (record.preempt_requested
                     and record.remaining_iterations > 0)
        if self.recorder is not None:
            record.spans.extend(stats.spans)
        kvcache.close()
        release_memory_plan(view, weights_plan)
        store.charge_gpu_seconds(
            record, spec.gpus * (engine.now - segment_start))
        if preempted:
            store.mark_preempted(record, engine.now)
            daemon.job_preempted(record)
        else:
            store.mark_completed(record, engine.now)
            daemon.job_finished(record)

    def _collect_spans(self, record: JobRecord, view: ClusterView,
                       executor: Executor) -> None:
        if self.recorder is None:
            return
        record.spans.extend(
            Span(view.global_rank(span.rank), span.lane, span.kind,
                 f"{record.job_id}:{span.name}", span.start, span.end,
                 synthetic=span.synthetic)
            for span in executor.spans
        )


def run_cluster(scenario: ClusterScenario) -> ClusterRun:
    """Simulate one :class:`ClusterScenario` end to end."""
    arrivals = scenario.expand_arrivals()
    cluster = Cluster(ClusterSpec(num_nodes=scenario.nodes))
    with RunProbes(cluster,
                   tie_order=named_tie_order(scenario.tie_order,
                                             scenario.tie_seed),
                   trace=scenario.trace,
                   leak_check=scenario.leak_check) as probes:
        engine = probes.engine
        recorder = probes.recorder
        service = _ClusterService(scenario, cluster, engine, probes.network,
                                  recorder)
        service.validate([arrival.spec for arrival in arrivals])
        daemon = SchedulerDaemon(
            engine, cluster, service.store,
            policy=scenario.policy,
            aging_rate=scenario.aging_rate,
            expected_jobs=len(arrivals),
            demand=service.demand_plan,
            launch=service.launch,
        )
        service.daemon = daemon

        for arrival in arrivals:
            engine.schedule_at(arrival.time, service.submit, arrival.spec)
        engine.process(daemon.run(), name="scheduler-daemon")
        engine.run()
        check_liveness(engine)
        _, leaks = probes.close()

    total_time = engine.now
    report = build_report(
        scenario.name, scenario.policy,
        nodes=cluster.num_nodes, num_gpus=cluster.num_gpus,
        total_time=total_time, store=service.store,
        events_processed=engine.events_processed,
        events_folded=engine.events_folded,
        leaks=leaks,
    )
    trace = (
        build_trace(
            cluster, total_time,
            spans=[span for record in service.store.records
                   for span in record.spans],  # submission order
            recorder=recorder,
            counters=("device_mem",),
            meta={
                "scenario": scenario.name,
                "policy": scenario.policy,
                "num_nodes": cluster.num_nodes,
                "num_gpus": cluster.num_gpus,
                "total_time": total_time,
                "jobs": len(service.store.records),
            })
        if recorder is not None else None
    )
    return ClusterRun(report=report, trace=trace)
