"""Materialize a :class:`~repro.api.spec.RunSpec` into live simulator
objects and run it.

This is the one place that maps canonical names back to objects:
strategy names through :func:`repro.experiments.common.make_strategy`,
placement keys through :data:`repro.parallel.placement.PLACEMENTS`,
fault spec strings through :meth:`repro.faults.FaultPlan.parse`, and
tie-order policy names onto the engine's :class:`~repro.sim.engine.
TieOrder` classes (through :func:`repro.sim.probes.named_tie_order`, the
mapping every workload shares).  It also holds the one cluster-preset
rule (:func:`preset_cluster`, and :func:`strategy_cluster` for a named
strategy), which the experiments, the CLI and the perturbation differ
call without a spec, and the one model-depth rule (:func:`build_model`),
which serving shares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

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

if TYPE_CHECKING:  # serving imports this module for build_model
    from ..inference.spec import InferenceSpec


def build_strategy(spec: RunSpec):
    """The named strategy, freshly constructed."""
    from ..experiments.common import make_strategy

    return make_strategy(spec.strategy)


def build_placement(spec: RunSpec) -> PlacementConfig:
    try:
        return PLACEMENTS[spec.placement]
    except KeyError:
        raise ConfigurationError(
            f"unknown placement {spec.placement!r}; "
            f"known: {sorted(PLACEMENTS)}"
        ) from None


def preset_cluster(nodes: int,
                   placement: Optional[PlacementConfig] = None) -> Cluster:
    """The paper's cluster on ``nodes`` nodes: the one preset rule.

    Given a placement, the nodes are wired from its node spec, which
    places the drives an NVMe strategy offloads to.  Otherwise one node
    is the single-node preset, two the dual-node preset, and more an
    explicit ``ClusterSpec``.
    """
    if placement is not None:
        return Cluster(ClusterSpec(num_nodes=nodes,
                                   node=placement.node_spec()))
    if nodes == 1:
        return single_node_cluster()
    if nodes == 2:
        return dual_node_cluster()
    return Cluster(ClusterSpec(num_nodes=nodes))


def strategy_cluster(strategy: str, nodes: int,
                     placement: PlacementConfig) -> Cluster:
    """The cluster the named strategy runs on: only an NVMe strategy's
    nodes are wired from ``placement``."""
    return preset_cluster(nodes, placement if "nvme" in strategy else None)


def build_cluster(spec: RunSpec) -> Cluster:
    """The cluster preset the spec's strategy/nodes/placement imply."""
    return strategy_cluster(spec.strategy, spec.nodes, build_placement(spec))


def build_model(spec: Union[RunSpec, InferenceSpec]) -> ModelConfig:
    """The model a training or serving spec names: ``num_layers`` pins
    the depth, ``size_billions`` goes through the paper's search."""
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
    metrics = run_training(
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
    )
    metrics.spec = spec
    return metrics
