"""Materialize a :class:`~repro.api.spec.RunSpec` into live simulator
objects and run it.

This is the one place that maps canonical names back to objects:
strategy names through :data:`repro.experiments.common.ALL_STRATEGIES`,
placement keys through :data:`repro.parallel.placement.PLACEMENTS`,
fault spec strings through :meth:`repro.faults.FaultPlan.parse`, and
tie-order policy names onto the engine's :class:`~repro.sim.engine.
TieOrder` classes (through :func:`repro.sim.probes.named_tie_order`, the
mapping every workload shares).  The cluster-preset rule matches the CLI
and the perturbation differ: NVMe strategies get a cluster wired from the
placement's node spec; everything else uses the standard single-/dual-
node presets (and an explicit ``ClusterSpec`` beyond two nodes).
"""

from __future__ import annotations

from typing import Optional

from ..collectives.nccl import RetryPolicy
from ..core.runner import RunMetrics, run_training
from ..core.search import model_for_billions
from ..errors import ConfigurationError
from ..faults.plan import FaultPlan
from ..hardware.cluster import Cluster, ClusterSpec
from ..hardware.presets import dual_node_cluster, single_node_cluster
from ..model.config import ModelConfig, TrainingConfig, paper_model
from ..parallel.placement import PLACEMENTS, PlacementConfig
from ..sim.engine import TieOrder
from ..sim.probes import named_tie_order
from .spec import RunSpec


def build_strategy(spec: RunSpec):
    """The named strategy, freshly constructed."""
    from ..experiments.common import ALL_STRATEGIES

    try:
        factory = ALL_STRATEGIES[spec.strategy]
    except KeyError:
        raise ConfigurationError(
            f"unknown strategy {spec.strategy!r}; "
            f"known: {sorted(ALL_STRATEGIES)}"
        ) from None
    return factory()


def build_placement(spec: RunSpec) -> PlacementConfig:
    try:
        return PLACEMENTS[spec.placement]
    except KeyError:
        raise ConfigurationError(
            f"unknown placement {spec.placement!r}; "
            f"known: {sorted(PLACEMENTS)}"
        ) from None


def build_cluster(spec: RunSpec) -> Cluster:
    """The cluster preset the spec's strategy/nodes/placement imply."""
    placement = build_placement(spec)
    if "nvme" in spec.strategy:
        return Cluster(ClusterSpec(num_nodes=spec.nodes,
                                   node=placement.node_spec()))
    if spec.nodes == 1:
        return single_node_cluster()
    if spec.nodes == 2:
        return dual_node_cluster()
    return Cluster(ClusterSpec(num_nodes=spec.nodes))


def build_model(spec: RunSpec) -> ModelConfig:
    if spec.num_layers is not None:
        return paper_model(spec.num_layers)
    assert spec.size_billions is not None
    return model_for_billions(spec.size_billions)


def build_training(spec: RunSpec) -> TrainingConfig:
    return TrainingConfig(
        micro_batch_per_gpu=spec.micro_batch_per_gpu,
        precision_bytes=spec.precision_bytes,
        activation_recompute=spec.activation_recompute,
    )


def build_fault_plan(spec: RunSpec) -> Optional[FaultPlan]:
    if not spec.faults:
        return None
    return FaultPlan.parse(list(spec.faults), seed=spec.fault_seed,
                           horizon=spec.fault_horizon)


def build_retry_policy(spec: RunSpec) -> Optional[RetryPolicy]:
    values = (spec.retry_timeout_s, spec.retry_backoff,
              spec.retry_max_retries)
    if all(value is None for value in values):
        return None
    defaults = RetryPolicy()
    return RetryPolicy(
        timeout=(defaults.timeout if spec.retry_timeout_s is None
                 else spec.retry_timeout_s),
        backoff=(defaults.backoff if spec.retry_backoff is None
                 else spec.retry_backoff),
        max_retries=(defaults.max_retries if spec.retry_max_retries is None
                     else spec.retry_max_retries),
    )


def build_tie_order(spec: RunSpec) -> Optional[TieOrder]:
    return named_tie_order(spec.tie_order, spec.tie_seed)


def run_spec(spec: RunSpec, *, cluster: Optional[Cluster] = None
             ) -> RunMetrics:
    """Simulate one :class:`RunSpec` and return its metrics.

    The canonical entry point for spec-driven execution: the campaign
    runner, ``repro run``, and :meth:`RunSpec.run` all come through
    here.  ``cluster`` overrides the preset (for callers that already
    built one); the returned metrics carry ``metrics.spec`` so results
    stay traceable to their exact configuration.
    """
    if cluster is None:
        cluster = build_cluster(spec)
    return run_training(
        cluster,
        build_strategy(spec),
        build_model(spec),
        training=build_training(spec),
        iterations=spec.iterations,
        warmup_iterations=spec.warmup_iterations,
        placement=build_placement(spec),
        fault_plan=build_fault_plan(spec),
        retry_policy=build_retry_policy(spec),
        tie_order=build_tie_order(spec),
        sanitize=spec.sanitize,
        trace=spec.trace,
        leak_check=spec.leak_check,
        preflight=spec.preflight,
        fidelity=spec.fidelity,
        spec=spec,
    )
