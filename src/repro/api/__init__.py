"""Public facade: the canonical :class:`RunSpec` API.

The one import new code needs for spec-driven simulation::

    from repro.api import RunSpec, run_spec

    metrics = run_spec(RunSpec("zero2", size_billions=1.4))

``RunSpec`` names a training run as one frozen, JSON-round-trippable
value with a documented stable :meth:`~repro.api.spec.Spec.cache_key` —
the hash the campaign result cache (:mod:`repro.campaign`) is keyed on.
Its codec is the :class:`~repro.api.spec.Spec` base that every spec
class shares, serving's :class:`repro.inference.InferenceSpec` and the
cluster service's :class:`repro.cluster.ClusterScenario` included; see
DESIGN.md ("Workloads & the spec API").  :mod:`repro.api.build` maps a
spec's names back to live simulator objects.
"""

from .build import (
    build_cluster,
    build_fault_plan,
    build_model,
    build_placement,
    build_retry_policy,
    build_strategy,
    build_tie_order,
    build_training,
    run_spec,
)
from .spec import (
    TIE_ORDERS,
    RunSpec,
    Spec,
    canonical_json,
    default_salt,
    stable_key,
)

__all__ = [
    "RunSpec",
    "Spec",
    "TIE_ORDERS",
    "build_cluster",
    "build_fault_plan",
    "build_model",
    "build_placement",
    "build_retry_policy",
    "build_strategy",
    "build_tie_order",
    "build_training",
    "canonical_json",
    "default_salt",
    "run_spec",
    "stable_key",
]
