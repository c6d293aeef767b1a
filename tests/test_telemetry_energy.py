"""Energy/power model (extension)."""

import pytest

from repro.core.runner import run_training
from repro.core.search import model_for_billions
from repro.errors import ConfigurationError
from repro.hardware import single_node_cluster
from repro.parallel import zero2, zero2_cpu_offload
from repro.telemetry.energy import PowerModel, estimate_energy


@pytest.fixture(scope="module")
def metrics():
    cluster = single_node_cluster()
    m = run_training(cluster, zero2(), model_for_billions(1.4),
                     iterations=3)
    return cluster, m


class TestPowerModel:
    def test_blend_bounds(self):
        model = PowerModel()
        assert model.blend(100, 400, 0.0) == 100
        assert model.blend(100, 400, 1.0) == 400
        assert model.blend(100, 400, 2.0) == 400  # clamped
        assert model.blend(100, 400, -1.0) == 100

    def test_blend_linear(self):
        model = PowerModel()
        assert model.blend(100, 400, 0.5) == 250


class TestEstimate:
    def test_report_structure(self, metrics):
        cluster, m = metrics
        report = estimate_energy(cluster, m.execution.spans,
                                 m.measurement_window)
        assert report.average_power_watts > 0
        assert set(report.by_component) >= {"gpu", "cpu", "dram", "nvme",
                                            "nic"}
        assert report.energy_joules == pytest.approx(
            report.average_power_watts * report.window_seconds)

    def test_node_power_magnitude(self, metrics):
        """A busy 4x A100 node draws roughly 1-3 kW."""
        cluster, m = metrics
        report = estimate_energy(cluster, m.execution.spans,
                                 m.measurement_window)
        assert 800 < report.average_power_watts < 3000

    def test_gpu_dominates_when_compute_bound(self, metrics):
        cluster, m = metrics
        report = estimate_energy(cluster, m.execution.spans,
                                 m.measurement_window)
        assert report.by_component["gpu"] == max(
            report.by_component.values())

    def test_offload_shifts_power_toward_cpu(self):
        cluster = single_node_cluster()
        m = run_training(cluster, zero2_cpu_offload(),
                         model_for_billions(1.4), iterations=3)
        report = estimate_energy(cluster, m.execution.spans,
                                 m.measurement_window)
        cluster2 = single_node_cluster()
        m2 = run_training(cluster2, zero2(), model_for_billions(1.4),
                          iterations=3)
        baseline = estimate_energy(cluster2, m2.execution.spans,
                                   m2.measurement_window)
        assert (report.by_component["cpu"] / report.by_component["gpu"]
                > baseline.by_component["cpu"] / baseline.by_component["gpu"])

    def test_tflops_per_kilowatt(self, metrics):
        cluster, m = metrics
        report = estimate_energy(cluster, m.execution.spans,
                                 m.measurement_window)
        assert report.tflops_per_kilowatt(m.tflops) > 0

    def test_bad_window_rejected(self, metrics):
        cluster, m = metrics
        with pytest.raises(ConfigurationError):
            estimate_energy(cluster, m.execution.spans, (1.0, 1.0))

    def test_energy_per_iteration(self, metrics):
        cluster, m = metrics
        report = estimate_energy(cluster, m.execution.spans,
                                 m.measurement_window)
        per_iter = report.energy_per_iteration(m.iteration_time)
        assert per_iter == pytest.approx(
            report.average_power_watts * m.iteration_time)
