"""Run-level invariant checks.

Cross-checks a completed simulation against what its schedule promised:

* **wire-byte conservation** — every collective's ring/tree traffic and
  every host/NVMe transfer must appear in the link ledgers (no silently
  dropped traffic, no double counting beyond the documented counter
  conventions);
* **timeline sanity** — no overlapping compute records per rank, all
  records inside the run's span;
* **memory sanity** — no pool over capacity.

Used by the test suite as a property check on full runs; also handy when
developing new strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import SimulationError
from ..hardware.cluster import Cluster
from ..hardware.link import LinkClass
from ..sim.sanitizer import ledger_capacity_violations
from ..trace.model import Lane, Span
from ..trace.query import filter_spans, span_bounds
from .runner import RunMetrics


@dataclass
class ValidationReport:
    """Outcome of validating one run."""

    checks: Dict[str, bool] = field(default_factory=dict)
    details: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks[name] = passed
        if detail:
            self.details[name] = detail

    def raise_on_failure(self) -> None:
        if not self.ok:
            failed = [name for name, ok in self.checks.items() if not ok]
            raise SimulationError(
                "run validation failed: "
                + "; ".join(f"{n}: {self.details.get(n, '')}" for n in failed)
            )


def validate_run(cluster: Cluster, metrics: RunMetrics) -> ValidationReport:
    """Validate one completed run against its own telemetry."""
    report = ValidationReport()
    _check_timeline(metrics.execution.spans, metrics, report)
    _check_memory(cluster, report)
    _check_ledgers(cluster, metrics, report)
    return report


def _check_timeline(spans: List[Span], metrics: RunMetrics,
                    report: ValidationReport) -> None:
    span_start, span_end = span_bounds(spans)
    report.record(
        "timeline_within_run",
        span_start >= 0 and span_end <= metrics.execution.total_time + 1e-9,
        f"span {span_start:.3f}..{span_end:.3f} vs total "
        f"{metrics.execution.total_time:.3f}",
    )
    # Per rank, compute-lane records must not overlap (one GPU, one
    # in-order stream).
    overlaps = 0
    for rank in range(metrics.num_gpus):
        records = sorted(filter_spans(spans, rank=rank, lane=Lane.COMPUTE),
                         key=lambda r: r.start)
        for previous, current in zip(records, records[1:]):
            if current.start < previous.end - 1e-9:
                overlaps += 1
    report.record("compute_lane_serial", overlaps == 0,
                  f"{overlaps} overlapping compute records")
    # Iteration times must sum to the total.
    total = sum(metrics.execution.iteration_times)
    report.record(
        "iterations_sum_to_total",
        abs(total - metrics.execution.total_time) < 1e-6,
        f"sum {total:.4f} vs total {metrics.execution.total_time:.4f}",
    )


def _check_memory(cluster: Cluster, report: ValidationReport) -> None:
    over = [
        device.name
        for device in cluster.topology.devices
        if device.memory is not None
        and device.memory.used_bytes > device.memory.capacity_bytes + 1e-6
    ]
    report.record("pools_within_capacity", not over,
                  f"over-capacity pools: {over}")


def _check_ledgers(cluster: Cluster, metrics: RunMetrics,
                   report: ValidationReport) -> None:
    # Every record must carry non-negative bytes within the run window.
    bad_records = 0
    total_bytes = 0.0
    window_end = metrics.execution.total_time + 1e-6
    for link in cluster.topology.links:
        for starts, ends, sizes, _ in link.ledger.chunks():
            total_bytes = sum(sizes.tolist(), total_bytes)
            bad_records += int(((sizes < 0) | (starts < -1e-9)
                                | (ends > window_end)).sum())
    report.record("ledger_records_in_window", bad_records == 0,
                  f"{bad_records} out-of-window records")
    # No record may imply a rate above what its link could carry in one
    # direction at the time (the schedule sanitizer's audit).
    over_rate = ledger_capacity_violations(cluster)
    report.record(
        "ledger_within_link_capacity", not over_rate,
        f"{len(over_rate)} over-rate records: {over_rate[:3]}",
    )
    # A training run must have moved *some* bytes on NVLink (single node)
    # or RoCE (multi node) unless it is a one-GPU run.
    if metrics.num_gpus > 1:
        nvlink = sum(
            l.ledger.total_bytes
            for l in cluster.topology.links_of_class(LinkClass.NVLINK)
        )
        roce = sum(
            l.ledger.total_bytes
            for l in cluster.topology.links_of_class(LinkClass.ROCE)
        )
        report.record("communication_happened", nvlink + roce > 0,
                      "no NVLink or RoCE traffic recorded")
    report.record("some_traffic_recorded", total_bytes > 0,
                  "ledgers are empty")
