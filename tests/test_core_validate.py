"""Run-level invariant validation."""

import pytest

from repro.core.runner import run_training
from repro.core.search import model_for_billions
from repro.core.validate import ValidationReport, validate_run
from repro.errors import SimulationError
from repro.hardware import dual_node_cluster, single_node_cluster
from repro.hardware.link import LinkClass
from repro.runtime.kernels import KernelKind
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
        link.ledger.clear()
        link.set_capacity_fraction(0.5, at_time=0.05)
        # At rated capacity but entirely before the degradation begins.
        link.ledger.record(0.0, 0.04,
                           link.base_capacity_per_direction * 0.04)
        assert "ledger_within_link_capacity" not in self._failed(
            cluster, metrics)

    def test_missing_communication(self, run):
        cluster, metrics = run
        for link in cluster.topology.links_of_class(LinkClass.NVLINK):
            link.ledger.clear()
        for link in cluster.topology.links_of_class(LinkClass.ROCE):
            link.ledger.clear()
        assert "communication_happened" in self._failed(cluster, metrics)

    def test_empty_ledgers(self, run):
        cluster, metrics = run
        for link in cluster.topology.links:
            link.ledger.clear()
        failed = self._failed(cluster, metrics)
        assert "some_traffic_recorded" in failed
