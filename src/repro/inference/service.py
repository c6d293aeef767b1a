"""Wire one serving instance together: :func:`run_inference`.

The serving analog of :func:`repro.cluster.service.run_cluster`: build
the machine (a parametric N-node :class:`~repro.hardware.cluster.
Cluster`), take one :class:`~repro.sim.engine.Engine` and one
:class:`~repro.sim.flows.FlowNetwork` from a
:class:`~repro.sim.probes.RunProbes`, carve the tensor-parallel rank
space out with :func:`~repro.cluster.views.probe_view`, allocate
weights and the KV budget in the device pools, schedule the open-loop
request stream, and run the :class:`~repro.inference.batching.
ServingScheduler` as the single process.  The TP all-reduces go through
a real :class:`~repro.collectives.nccl.NcclCommunicator` over the
view, so serving traffic pays NVLink/NIC costs with the same fidelity
as training collectives — over two nodes, prefill all-reduces cross
the switch exactly like a Megatron forward's.

Instruments attach as in every other run: the probes hook the recorder
and the leak sanitizer into the network and pools and remove them when
the run ends, and the one :func:`~repro.trace.recorder.build_trace`
assembles the serving trace.  Weights, the KV budget's slack, and every
per-request KV reservation are named pool labels, so ``leak_check=True``
audits the whole serving run for byte conservation (zero leaked KV
bytes on a clean exit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.liveness import check_liveness
from ..api.build import build_model
from ..collectives.nccl import NcclCommunicator
from ..errors import ConfigurationError
from ..hardware.cluster import Cluster, ClusterSpec
from ..sim.leaksan import LeakReport
from ..sim.probes import RunProbes, named_tie_order
from ..trace.model import Trace
from ..trace.recorder import build_trace
from ..cluster.views import probe_view
from .batching import RequestRecord, ServingScheduler
from .costmodel import PhaseCostModel
from .kvcache import KvCache
from .report import InferenceReport, build_report
from .spec import InferenceSpec

WEIGHTS = "weights"


@dataclass
class InferenceRun:
    """Everything one serving run produced."""

    report: InferenceReport
    trace: Optional[Trace] = None

    @property
    def leaks(self) -> Optional[LeakReport]:
        return self.report.leaks


def run_inference(spec: InferenceSpec) -> InferenceRun:
    """Simulate one :class:`InferenceSpec` end to end."""
    requests = spec.expand_requests()
    config = build_model(spec)
    if config.num_heads % spec.gpus:
        raise ConfigurationError(
            f"tensor parallelism needs gpus to divide num_heads: "
            f"{spec.gpus} does not divide {config.num_heads}"
        )
    for request in requests:
        if request.total_tokens > config.max_position_embeddings:
            raise ConfigurationError(
                f"request {request.name!r} needs {request.total_tokens} "
                f"context tokens; the model serves at most "
                f"{config.max_position_embeddings}"
            )

    cluster = Cluster(ClusterSpec(num_nodes=spec.nodes))
    view = probe_view(cluster, spec.gpus)
    with RunProbes(cluster,
                   tie_order=named_tie_order(spec.tie_order, spec.tie_seed),
                   trace=spec.trace,
                   leak_check=spec.leak_check) as probes:
        engine = probes.engine
        recorder = probes.recorder
        cost = PhaseCostModel(
            config, cluster.nodes[0].spec.gpu,
            tensor_parallel=spec.gpus,
            precision_bytes=spec.precision_bytes,
        )
        pools = [view.gpu(rank).memory for rank in range(view.num_gpus)]
        for pool in pools:
            pool.allocate(WEIGHTS, cost.weight_bytes_per_rank)
        budget_per_rank = (min(pool.free_bytes for pool in pools)
                           * spec.kv_fraction)
        if budget_per_rank <= 0:
            raise ConfigurationError(
                f"no memory left for KV cache: weights take "
                f"{cost.weight_bytes_per_rank:.0f} B of a "
                f"{pools[0].capacity_bytes:.0f} B pool per rank"
            )
        largest = max(request.total_tokens for request in requests)
        if largest * cost.kv_token_bytes_per_rank > budget_per_rank:
            raise ConfigurationError(
                f"KV budget ({budget_per_rank:.0f} B/rank) cannot hold "
                f"even one {largest}-token request "
                f"({largest * cost.kv_token_bytes_per_rank:.0f} B/rank); "
                f"it could never be admitted"
            )
        kvcache = KvCache(
            pools,
            budget_per_rank=budget_per_rank,
            bytes_per_token_per_rank=cost.kv_token_bytes_per_rank,
        )
        comm = (
            NcclCommunicator(view, engine, probes.network,
                             list(range(view.num_gpus)))
            if view.num_gpus > 1 else None
        )
        scheduler = ServingScheduler(
            engine, cost, kvcache,
            comm=comm,
            batching=spec.batching,
            max_batch_tokens=spec.max_batch_tokens,
            max_batch_requests=spec.max_batch_requests,
            span_ranks=(
                tuple(view.global_rank(rank)
                      for rank in range(view.num_gpus))
                if recorder is not None else ()),
            collective_sink=recorder,
        )
        records = [RequestRecord(request=request) for request in requests]
        for record in records:
            engine.schedule_at(record.request.time, scheduler.submit,
                               record)
        engine.process(scheduler.serve(records), name="serving-loop")
        engine.run()
        check_liveness(engine)

        kv_peak = kvcache.peak_reserved_per_rank * view.num_gpus
        kv_budget = kvcache.budget_per_rank * view.num_gpus
        kvcache.close()
        for pool in pools:
            pool.free(WEIGHTS)
        _, leaks = probes.close()

    total_time = engine.now
    report = build_report(
        spec.label, spec.batching,
        nodes=spec.nodes, num_gpus=view.num_gpus,
        total_time=total_time,
        records=records, stats=scheduler.stats,
        slo_ttft_s=spec.slo_ttft_s, slo_tpot_s=spec.slo_tpot_s,
        kv_budget_bytes=kv_budget, kv_peak_bytes=kv_peak,
        events_processed=engine.events_processed,
        events_folded=engine.events_folded,
        leaks=leaks,
    )
    trace = (
        build_trace(
            cluster, total_time,
            spans=scheduler.stats.spans,
            recorder=recorder,
            meta={
                "spec": spec.label,
                "batching": spec.batching,
                "num_nodes": spec.nodes,
                "num_gpus": view.num_gpus,
            })
        if recorder is not None else None
    )
    return InferenceRun(report=report, trace=trace)
