"""Runtime leak audit: the teardown audit of pool labels and active
flows, and the leak-checked end-to-end run.

These tests pin that a conforming run really ends with no pool label
holding bytes and no flow still active — and that a planted runtime
leak is reported once, not papered over.
"""

import pytest

from repro.analysis.findings import Severity
from repro.api import RunSpec, build_cluster, run_spec
from repro.core.runner import run_training
from repro.errors import SimulationError
from repro.hardware import single_node_cluster
from repro.model import paper_model
from repro.parallel import DdpStrategy, zero2
from repro.sim.engine import Engine
from repro.sim.flows import FlowNetwork
from repro.sim.leaksan import (
    MAX_RECORDED_LEAKS,
    LeakRecord,
    LeakReport,
    audit_leaks,
)
from repro.sim.probes import RunProbes
from repro.units import GB


@pytest.fixture()
def cluster():
    c = single_node_cluster()
    c.reset()
    return c


@pytest.fixture()
def network():
    return FlowNetwork(Engine())


def _run_stuck_flow(cluster, *, trace, leak_label=None):
    """Start a 100 GB gpu0 -> socket-1 DRAM transfer (three links), stop
    the clock long before it finishes, and audit."""
    with RunProbes(cluster, leak_check=True, trace=trace) as probes:
        if leak_label is not None:
            cluster.gpu(0).memory.allocate(leak_label, 2 * GB)
        route = cluster.topology.route("node0/gpu0", "node0/dram1")
        assert len(route.links) == 3
        probes.network.transfer(route, 100 * GB, label="stuck")
        probes.engine.run(until=0.01)
        records = sum(len(link.ledger) for link in cluster.topology.links)
        _, leaks = probes.close()
    # the audit reads; it settles nothing into the ledgers
    assert sum(len(link.ledger) for link in cluster.topology.links) == \
        records
    return leaks


class TestLeakSanitizerUnit:
    def test_clean_report_after_balanced_pool_use(self, cluster, network):
        pool = cluster.gpu(0).memory
        pool.allocate("x", 10.0)
        pool.free("x")
        report = audit_leaks(cluster, network)
        assert report.clean
        assert report.pools_audited > 0
        report.assert_clean()  # must not raise

    def test_outstanding_pool_balance_is_res007(self, cluster, network):
        cluster.gpu(0).memory.allocate("leaked", 3 * GB)
        report = audit_leaks(cluster, network)
        assert not report.clean
        assert [r.code for r in report.records] == ["RES007"]
        assert report.records[0].protocol == "memory-pool"
        assert "leaked" in report.records[0].detail
        assert report.leaked_bytes == 3 * GB
        with pytest.raises(SimulationError) as err:
            report.assert_clean()
        assert "outstanding" in str(err.value)

    def test_recording_cap_counts_suppressed(self):
        report = LeakReport()
        for i in range(MAX_RECORDED_LEAKS + 5):
            report.add(LeakRecord(
                protocol="memory-pool", code="RES007",
                resource=f"pool{i}", detail="x"))
        assert len(report.records) == MAX_RECORDED_LEAKS
        assert report.suppressed == 5
        assert not report.clean

    def test_leaks_past_the_cap_are_counted_and_summed(self, cluster,
                                                       network):
        pool = cluster.gpu(0).memory
        planted = MAX_RECORDED_LEAKS + 6
        for i in range(planted):
            pool.allocate(f"leak{i:03d}", 0.1 * GB)
        report = audit_leaks(cluster, network)
        assert len(report.records) == MAX_RECORDED_LEAKS
        assert report.suppressed == 6
        assert report.leaked_bytes == pytest.approx(planted * 0.1 * GB)
        with pytest.raises(SimulationError) as err:
            report.assert_clean()
        assert f"found {planted} outstanding" in str(err.value)
        assert "(7.000 GB leaked)" in str(err.value)

    def test_report_round_trips_and_exports_findings(self):
        report = LeakReport(records=[LeakRecord(
            protocol="memory-pool", code="RES007", resource="gpu0",
            detail="label 'x' holds 1.0 GB", amount_bytes=GB)])
        payload = report.to_dict()
        assert payload["clean"] is False
        assert payload["leaked_bytes"] == GB
        findings = report.findings()
        assert findings[0].code == "RES007"
        assert findings[0].severity == Severity.WARNING


class TestStuckFlow:
    @pytest.mark.parametrize("trace", [False, True])
    def test_stuck_flow_is_one_res007(self, cluster, trace):
        leaks = _run_stuck_flow(cluster, trace=trace)
        assert [(r.code, r.protocol, r.resource) for r in leaks.records] \
            == [("RES007", "flow-epoch", "flow:0:stuck")]
        assert leaks.records[0].amount_bytes == 100 * GB
        assert leaks.leaked_bytes == 100 * GB

    def test_leaked_label_and_stuck_flow_each_listed_once(self, cluster):
        leaks = _run_stuck_flow(cluster, trace=True, leak_label="orphan")
        assert sorted((r.protocol, r.resource) for r in leaks.records) == [
            ("flow-epoch", "flow:0:stuck"),
            ("memory-pool", cluster.gpu(0).name),
        ]
        assert leaks.leaked_bytes == 102 * GB


class TestLeakCheckedRun:
    def test_run_training_leak_check_is_clean(self, cluster):
        metrics = run_training(cluster, DdpStrategy(), paper_model(4),
                               iterations=3, leak_check=True, trace=True)
        report = metrics.leaks
        assert report is not None
        assert report.clean, report.to_dict()
        assert report.pools_audited > 0

    def test_hybrid_quick_spec_ends_balanced(self):
        spec = RunSpec("zero2", size_billions=0.5, iterations=6,
                       warmup_iterations=1, fidelity="hybrid",
                       leak_check=True)
        metrics = run_spec(spec)
        assert metrics.leaks is not None
        assert metrics.leaks.clean, metrics.leaks.to_dict()
        metrics.leaks.assert_clean()

    def test_leak_check_is_schedule_invariant(self):
        c1 = single_node_cluster()
        c1.reset()
        checked = run_training(c1, zero2(), paper_model(8), iterations=3,
                               leak_check=True)
        c2 = single_node_cluster()
        c2.reset()
        plain = run_training(c2, zero2(), paper_model(8), iterations=3)
        assert checked.execution.iteration_times == \
            plain.execution.iteration_times
        assert plain.leaks is None

    def test_leaks_surface_in_results_payload(self, cluster):
        from repro.core.results import metrics_to_dict
        metrics = run_training(cluster, DdpStrategy(), paper_model(4),
                               iterations=2, leak_check=True)
        payload = metrics_to_dict(metrics)
        assert payload["leaks"]["clean"] is True
        plain_cluster = single_node_cluster()
        plain_cluster.reset()
        plain = run_training(plain_cluster, DdpStrategy(), paper_model(4),
                             iterations=2)
        assert metrics_to_dict(plain)["leaks"] is None

    def test_later_run_leaves_the_report_and_no_observer(self):
        spec = RunSpec("zero2", size_billions=0.7, iterations=2,
                       leak_check=True)
        cluster = build_cluster(spec)
        leaks = run_spec(spec, cluster=cluster).leaks
        before = leaks.to_dict()
        run_spec(spec.replace(leak_check=False), cluster=cluster)
        assert leaks.to_dict() == before

    def test_memory_snapshot_survives_teardown(self, cluster):
        # The leak-check teardown frees the plan labels; the reported
        # memory snapshot must still show the plan's residency.
        metrics = run_training(cluster, DdpStrategy(), paper_model(4),
                               iterations=2, leak_check=True)
        assert metrics.memory.gpu_used > 0
        assert "parameters" in metrics.memory.gpu_by_label
