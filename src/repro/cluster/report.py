"""The cluster-service result payload: goodput, waits, tenants.

:class:`ClusterReport` is to a cluster run what
:func:`~repro.core.results.metrics_to_dict` is to a training run: a
JSON-safe, schema-versioned summary (the shared results
``SCHEMA_VERSION``, currently v3) the CLI prints, campaigns cache, and
the determinism tests field-diff via :meth:`ClusterReport.headline`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.results import SCHEMA_VERSION, numeric_headline
from ..sim.leaksan import LeakReport
from .jobs import JobStore


def percentile(values: List[float], q: float) -> float:
    """The q-quantile by the nearest-rank method (deterministic)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class ClusterReport:
    """Everything one cluster-service run measured."""

    scenario: str
    policy: str
    nodes: int
    num_gpus: int
    total_time_s: float
    jobs_submitted: int
    jobs_completed: int
    jobs_failed: int
    preemptions: int
    goodput_jobs_per_hour: float
    queue_wait_p50_s: float
    queue_wait_p99_s: float
    max_concurrent_jobs: int
    max_in_system_jobs: int
    gpu_seconds_total: float
    cluster_utilization: float
    checkpoint_overhead_s: float
    events_processed: int
    events_folded: int
    tenants: Dict[str, Dict[str, object]] = field(default_factory=dict)
    leaks: Optional[LeakReport] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "cluster",
            "scenario": self.scenario,
            "policy": self.policy,
            "nodes": self.nodes,
            "num_gpus": self.num_gpus,
            "total_time_s": round(self.total_time_s, 9),
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "preemptions": self.preemptions,
            "goodput_jobs_per_hour": round(self.goodput_jobs_per_hour, 6),
            "queue_wait_p50_s": round(self.queue_wait_p50_s, 9),
            "queue_wait_p99_s": round(self.queue_wait_p99_s, 9),
            "max_concurrent_jobs": self.max_concurrent_jobs,
            "max_in_system_jobs": self.max_in_system_jobs,
            "gpu_seconds_total": round(self.gpu_seconds_total, 9),
            "cluster_utilization": round(self.cluster_utilization, 9),
            "checkpoint_overhead_s": round(self.checkpoint_overhead_s, 9),
            "events_processed": self.events_processed,
            "events_folded": self.events_folded,
            "tenants": dict(sorted(self.tenants.items())),
            "leaks": self.leaks.to_dict() if self.leaks is not None else None,
        }

    def headline(self) -> Dict[str, float]:
        """Flat numeric fields for the perturbation differ."""
        return numeric_headline(self.to_dict())


def build_report(scenario_name: str, policy: str, *,
                 nodes: int, num_gpus: int, total_time: float,
                 store: JobStore, events_processed: int,
                 events_folded: int,
                 leaks: Optional[LeakReport] = None) -> ClusterReport:
    """Assemble the report from the finished store's records."""
    counts = store.counts()
    completed = counts["completed"]
    waits = [record.queue_wait_s for record in store.records
             if record.done]
    gpu_seconds = sum(account.gpu_seconds
                      for account in store.tenants.values())
    capacity = num_gpus * total_time
    tenants: Dict[str, Dict[str, object]] = {}
    for name, account in store.tenants.items():
        payload = account.to_dict()
        payload["utilization"] = (
            round(account.gpu_seconds / capacity, 9) if capacity else 0.0
        )
        tenants[name] = payload
    return ClusterReport(
        scenario=scenario_name,
        policy=policy,
        nodes=nodes,
        num_gpus=num_gpus,
        total_time_s=total_time,
        jobs_submitted=len(store.records),
        jobs_completed=completed,
        jobs_failed=counts["failed"],
        preemptions=sum(record.preemptions for record in store.records),
        goodput_jobs_per_hour=(
            completed / total_time * 3600.0 if total_time else 0.0
        ),
        queue_wait_p50_s=percentile(waits, 0.50),
        queue_wait_p99_s=percentile(waits, 0.99),
        max_concurrent_jobs=store.max_concurrent,
        max_in_system_jobs=store.max_in_system,
        gpu_seconds_total=gpu_seconds,
        cluster_utilization=(gpu_seconds / capacity if capacity else 0.0),
        checkpoint_overhead_s=sum(
            account.checkpoint_overhead_s
            for account in store.tenants.values()
        ),
        events_processed=events_processed,
        events_folded=events_folded,
        tenants=tenants,
        leaks=leaks,
    )
