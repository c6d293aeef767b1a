"""Run-level invariant validation."""

import pytest

from repro.api import RunSpec, run_spec
from repro.api.build import build_cluster
from repro.core.runner import run_training
from repro.core.search import model_for_billions
from repro.core.validate import ValidationReport, validate_run
from repro.errors import SimulationError
from repro.hardware import dual_node_cluster, single_node_cluster
from repro.hardware.link import LinkClass
from repro.runtime.kernels import KernelKind
from repro.sim.sanitizer import RATE_TOLERANCE, ledger_capacity_violations
from repro.parallel import (
    DdpStrategy,
    MegatronStrategy,
    pipeline_1f1b,
    zero2,
    zero2_cpu_offload,
    zero3,
    zero3_nvme_optimizer,
)
from repro.trace.model import Lane, Span
from repro.trace.query import filter_spans


@pytest.mark.parametrize("factory", [
    DdpStrategy, MegatronStrategy, zero2, zero3, pipeline_1f1b,
])
def test_single_node_runs_validate(factory):
    cluster = single_node_cluster()
    metrics = run_training(cluster, factory(), model_for_billions(0.7),
                           iterations=2)
    report = validate_run(cluster, metrics)
    assert report.ok, report.details


@pytest.mark.parametrize("factory", [DdpStrategy, zero3])
def test_dual_node_runs_validate(factory):
    cluster = dual_node_cluster()
    metrics = run_training(cluster, factory(), model_for_billions(0.7),
                           iterations=2)
    report = validate_run(cluster, metrics)
    assert report.ok, report.details


def test_offload_runs_validate():
    cluster = single_node_cluster()
    metrics = run_training(cluster, zero2_cpu_offload(),
                           model_for_billions(1.4), iterations=2)
    assert validate_run(cluster, metrics).ok


def test_nvme_runs_validate():
    cluster = single_node_cluster()
    metrics = run_training(cluster, zero3_nvme_optimizer(),
                           model_for_billions(1.4), iterations=2)
    assert validate_run(cluster, metrics).ok


class TestReport:
    def test_raise_on_failure(self):
        report = ValidationReport()
        report.record("good", True)
        report.record("bad", False, "boom")
        assert not report.ok
        with pytest.raises(SimulationError, match="boom"):
            report.raise_on_failure()

    def test_raise_on_failure_names_every_failed_check(self):
        report = ValidationReport()
        report.record("first_check", False, "alpha detail")
        report.record("second_check", False, "beta detail")
        with pytest.raises(SimulationError) as excinfo:
            report.raise_on_failure()
        message = str(excinfo.value)
        assert "run validation failed" in message
        assert "first_check: alpha detail" in message
        assert "second_check: beta detail" in message

    def test_ok_report_does_not_raise(self):
        report = ValidationReport()
        report.record("good", True)
        report.raise_on_failure()


class TestFailurePaths:
    """Each validate_run check must actually fire on corrupted state."""

    @pytest.fixture()
    def run(self):
        cluster = single_node_cluster()
        metrics = run_training(cluster, zero2(), model_for_billions(0.7),
                               iterations=2)
        return cluster, metrics

    def _failed(self, cluster, metrics):
        report = validate_run(cluster, metrics)
        return {name for name, ok in report.checks.items() if not ok}

    def test_timeline_beyond_total_time(self, run):
        cluster, metrics = run
        total = metrics.execution.total_time
        metrics.execution.spans.append(
            Span(0, Lane.COMPUTE, KernelKind.GEMM, "late",
                 total + 1.0, total + 2.0))
        assert "timeline_within_run" in self._failed(cluster, metrics)

    def test_overlapping_compute_records(self, run):
        cluster, metrics = run
        spans = metrics.execution.spans
        first = filter_spans(spans, rank=0, lane=Lane.COMPUTE)[0]
        spans.append(Span(0, Lane.COMPUTE, KernelKind.GEMM, "overlap",
                          first.start, first.end))
        assert "compute_lane_serial" in self._failed(cluster, metrics)

    def test_iteration_times_must_sum_to_total(self, run):
        cluster, metrics = run
        metrics.execution.iteration_times[0] += 1.0
        assert "iterations_sum_to_total" in self._failed(cluster, metrics)

    def test_over_capacity_pool(self, run):
        cluster, metrics = run
        gpu = cluster.gpu(0)
        gpu.memory._allocations["bogus"] = gpu.memory.capacity_bytes * 2
        assert "pools_within_capacity" in self._failed(cluster, metrics)

    def test_out_of_window_ledger_record(self, run):
        cluster, metrics = run
        link = cluster.topology.links_of_class(LinkClass.NVLINK)[0]
        total = metrics.execution.total_time
        link.ledger.record(total + 1.0, total + 2.0, 1024.0)
        assert "ledger_records_in_window" in self._failed(cluster, metrics)

    def test_over_rate_ledger_record(self, run):
        cluster, metrics = run
        link = cluster.topology.links_of_class(LinkClass.NVLINK)[0]
        # Twice the link's one-direction capacity for a tenth of a second.
        link.ledger.record(0.0, 0.1, link.capacity_per_direction * 0.2)
        failed = self._failed(cluster, metrics)
        assert "ledger_within_link_capacity" in failed

    def test_rate_tolerance_admits_capacity_traffic(self, run):
        cluster, metrics = run
        link = cluster.topology.links_of_class(LinkClass.NVLINK)[0]
        # Exactly at capacity: inside the tolerance band, must not fail.
        link.ledger.record(0.0, 0.1, link.capacity_per_direction * 0.1)
        assert "ledger_within_link_capacity" not in self._failed(
            cluster, metrics)

    def test_over_rate_against_degraded_capacity(self, run):
        cluster, metrics = run
        link = cluster.topology.links_of_class(LinkClass.NVLINK)[0]
        # Halve the link from t=0.01 on; traffic at 80 % of the *rated*
        # capacity inside the degraded window is over-rate against the
        # time-varying bound even though it would pass at full capacity.
        link.set_capacity_fraction(0.5, at_time=0.01)
        link.ledger.record(0.02, 0.12,
                           link.base_capacity_per_direction * 0.08)
        assert "ledger_within_link_capacity" in self._failed(
            cluster, metrics)

    def test_full_rate_before_degradation_passes(self, run):
        cluster, metrics = run
        link = cluster.topology.links_of_class(LinkClass.NVLINK)[0]
        # Drop the run's own traffic so only the synthetic record below
        # is judged against the time-varying bound.
        cluster.topology.reset_ledgers()
        link.set_capacity_fraction(0.5, at_time=0.05)
        # At rated capacity but entirely before the degradation begins.
        link.ledger.record(0.0, 0.04,
                           link.base_capacity_per_direction * 0.04)
        assert "ledger_within_link_capacity" not in self._failed(
            cluster, metrics)

    def test_missing_communication(self, run):
        cluster, metrics = run
        # Host traffic only: nothing on NVLink or RoCE.
        cluster.topology.reset_ledgers()
        link = cluster.topology.links_of_class(LinkClass.DRAM)[0]
        link.ledger.record(0.0, 0.1, 1e6)
        assert "communication_happened" in self._failed(cluster, metrics)

    def test_empty_ledgers(self, run):
        cluster, metrics = run
        cluster.topology.reset_ledgers()
        failed = self._failed(cluster, metrics)
        assert "some_traffic_recorded" in failed


def per_record_violations(cluster):
    """The reference for :func:`ledger_capacity_violations`: every record
    of every ledger checked one :class:`TransferRecord` at a time."""
    violations = []
    for link in cluster.topology.links:
        for record in link.ledger:
            width = record.end - record.start
            if width <= 1e-9:
                continue
            ceiling = link.max_capacity_over(record.start, record.end)
            rate = record.num_bytes / width
            if rate > ceiling * RATE_TOLERANCE:
                violations.append(
                    f"{link.name}: {rate:.6g} B/s over "
                    f"[{record.start:.6g}, {record.end:.6g}] exceeds "
                    f"capacity-in-effect {ceiling:.6g} B/s"
                )
    return violations


def test_columnar_audit_matches_the_per_record_loop():
    spec = RunSpec("zero3", 0.7, nodes=2, iterations=2,
                   faults=("node0/xgmi:degrade@t=0.02,dur=0.3,mag=0.5",))
    cluster = build_cluster(spec)
    metrics = run_spec(spec, cluster=cluster)
    xgmi = cluster.topology.link_between("node0/cpu0", "node0/cpu1")
    nvlink = cluster.topology.links_of_class(LinkClass.NVLINK)[0]
    rated = xgmi.base_capacity_per_direction
    # Over-rate direct charges: inside the degraded window at 80 % of
    # rated and at 53 % (just past the tolerance over its 50 %), at
    # twice capacity on a healthy link, and a trickle that ends before
    # time 0, when no capacity was in effect.
    xgmi.ledger.record(0.05, 0.15, rated * 0.08)
    xgmi.ledger.record(0.16, 0.26, rated * 0.053)
    nvlink.ledger.record(0.0, 0.1, nvlink.capacity_per_direction * 0.2)
    nvlink.ledger.record(-0.2, -0.1, 1.0)
    # At 80 % of rated before the degradation: within the bound.
    xgmi.ledger.record(0.0, 0.01, rated * 0.008)
    expected = per_record_violations(cluster)
    assert len(expected) == 4
    assert ledger_capacity_violations(cluster) == expected
    report = validate_run(cluster, metrics)
    assert not report.checks["ledger_within_link_capacity"]
