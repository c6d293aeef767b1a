"""Runtime leak sanitizer: observer hooks, teardown audits, the
cross-validation joint with the static RES findings, and the
leak-checked end-to-end run.

The sanitizer is the dynamic half of the RES family: the typestate
passes prove acquire/release conformance per function, these tests pin
that a conforming *run* really ends with zero outstanding pool/ledger
balance — and that a planted runtime leak is reported, not papered
over.
"""

import pytest

from repro.analysis.findings import Finding, Severity
from repro.api import RunSpec, build_cluster, run_spec
from repro.core.runner import run_training
from repro.errors import ConfigurationError, OutOfMemoryError, SimulationError
from repro.hardware import single_node_cluster
from repro.hardware.devices import MemoryPool
from repro.hardware.link import BandwidthLedger
from repro.model import paper_model
from repro.parallel import DdpStrategy, zero2
from repro.sim.leaksan import (
    MAX_RECORDED_LEAKS,
    LeakRecord,
    LeakReport,
    LeakSanitizer,
    cross_validate,
)
from repro.units import GB


@pytest.fixture()
def cluster():
    c = single_node_cluster()
    c.reset()
    return c


def _pools(cluster):
    pools = [device.memory for device in cluster.topology.devices
             if device.memory is not None]
    assert pools
    return pools


class TestLedgerReservations:
    def test_reserve_settle_balances(self):
        ledger = BandwidthLedger()
        r = ledger.reserve(10 * GB, owner="test")
        assert ledger.outstanding_bytes == 10 * GB
        ledger.settle(r)
        assert ledger.outstanding_bytes == 0
        assert ledger.open_reservations() == []

    def test_double_settle_raises(self):
        ledger = BandwidthLedger()
        r = ledger.reserve(1.0)
        ledger.settle(r)
        with pytest.raises(ConfigurationError) as err:
            ledger.settle(r)
        assert "already settled" in str(err.value)

    def test_cancel_then_settle_raises(self):
        ledger = BandwidthLedger()
        r = ledger.reserve(1.0)
        ledger.cancel(r)
        with pytest.raises(ConfigurationError):
            ledger.settle(r)

    def test_settle_of_non_token_raises(self):
        ledger = BandwidthLedger()
        with pytest.raises(ConfigurationError):
            ledger.settle("not a token")

    def test_reserving_settles_on_exception(self):
        ledger = BandwidthLedger()
        with pytest.raises(RuntimeError):
            with ledger.reserving(5.0, owner="guard"):
                raise RuntimeError("boom")
        assert ledger.outstanding_reservations == 0

    def test_reservations_never_gate_record(self):
        # Ownership bookkeeping, not admission control: charging more
        # bytes than reserved must not fail or alter the records.
        ledger = BandwidthLedger()
        ledger.reserve(1.0, owner="tiny")
        ledger.record(0.0, 1.0, 100.0)
        assert ledger.total_bytes == 100.0


class TestLeakSanitizerUnit:
    def test_clean_report_after_balanced_pool_use(self, cluster):
        san = LeakSanitizer()
        san.attach(cluster)
        pool = cluster.gpu(0).memory
        pool.allocate("x", 10.0)
        pool.free("x")
        report = san.finalize(cluster)
        assert report.clean
        assert report.pool_events == 2
        assert report.pools_audited > 0
        report.assert_clean()  # must not raise

    def test_outstanding_pool_balance_is_res007(self, cluster):
        san = LeakSanitizer()
        san.attach(cluster)
        cluster.gpu(0).memory.allocate("leaked", 3 * GB)
        report = san.finalize(cluster)
        assert not report.clean
        assert [r.code for r in report.records] == ["RES007"]
        assert report.records[0].protocol == "memory-pool"
        assert "leaked" in report.records[0].detail
        assert report.leaked_bytes == 3 * GB
        with pytest.raises(SimulationError) as err:
            report.assert_clean()
        assert "outstanding" in str(err.value)

    def test_runtime_double_free_is_res008(self, cluster):
        san = LeakSanitizer()
        san.attach(cluster)
        pool = cluster.gpu(0).memory
        pool.allocate("once", 1.0)
        pool.free("once")
        with pytest.raises(ConfigurationError):
            pool.free("once")
        report = san.finalize(cluster)
        assert [r.code for r in report.records] == ["RES008"]
        assert "double-free" in report.records[0].detail

    def test_free_after_fault_revert_is_res008(self, cluster):
        # A fault-recovery path that resets the pool and then replays a
        # stale free: the label epoch is gone, the free must surface as
        # a protocol error rather than silently succeed.
        san = LeakSanitizer()
        san.attach(cluster)
        pool = cluster.gpu(0).memory
        pool.allocate("epoch", 2.0)
        pool.reset()  # fault revert drops every label
        with pytest.raises(ConfigurationError):
            pool.free("epoch")
        report = san.finalize(cluster)
        assert [r.code for r in report.records] == ["RES008"]

    def test_outstanding_ledger_reservation_is_res007(self, cluster):
        san = LeakSanitizer()
        san.attach(cluster)
        link = cluster.topology.links[0]
        link.ledger.reserve(4 * GB, owner="forgotten")
        report = san.finalize(cluster)
        assert [r.code for r in report.records] == ["RES007"]
        assert report.records[0].protocol == "ledger-reservation"
        assert report.records[0].resource == link.name
        assert "forgotten" in report.records[0].detail

    def test_detach_clears_only_its_own_observers(self, cluster):
        first, second = LeakSanitizer(), LeakSanitizer()
        first.attach(cluster)
        second.attach(cluster)
        first.detach(cluster)
        assert all(pool.observer is second for pool in _pools(cluster))
        second.detach(cluster)
        assert all(pool.observer is None for pool in _pools(cluster))

    def test_unknown_flow_close_is_res008(self, cluster):
        class FakeFlow:
            id = 99

        san = LeakSanitizer()
        san.flow_closed(FakeFlow(), 1.0)
        assert [r.code for r in san.report.records] == ["RES008"]
        assert san.report.records[0].protocol == "flow-epoch"

    def test_recording_cap_counts_suppressed(self, cluster):
        san = LeakSanitizer()
        for i in range(MAX_RECORDED_LEAKS + 5):
            san._record(LeakRecord(
                protocol="memory-pool", code="RES007",
                resource=f"pool{i}", detail="x"))
        assert len(san.report.records) == MAX_RECORDED_LEAKS
        assert san.report.suppressed == 5
        assert not san.report.clean

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


class TestLeakCheckedRun:
    def test_run_training_leak_check_is_clean(self, cluster):
        metrics = run_training(cluster, DdpStrategy(), paper_model(4),
                               iterations=3, leak_check=True, trace=True)
        report = metrics.leaks
        assert report is not None
        assert report.clean, report.to_dict()
        assert report.pools_audited > 0
        assert report.ledgers_audited > 0
        assert report.flows_tracked > 0
        assert report.reservations_opened >= report.flows_tracked
        # zero outstanding balance everywhere after teardown
        for link in cluster.topology.links:
            assert link.ledger.outstanding_bytes == 0

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
        assert all(pool.observer is None for pool in _pools(cluster))

    def test_out_of_memory_run_leaves_no_observer(self):
        spec = RunSpec("ddp", size_billions=11.0, leak_check=True)
        cluster = build_cluster(spec)
        with pytest.raises(OutOfMemoryError):
            run_spec(spec, cluster=cluster)
        assert all(pool.observer is None for pool in _pools(cluster))

    def test_memory_snapshot_survives_teardown(self, cluster):
        # The leak-check teardown frees the plan labels; the reported
        # memory snapshot must still show the plan's residency.
        metrics = run_training(cluster, DdpStrategy(), paper_model(4),
                               iterations=2, leak_check=True)
        assert metrics.memory.gpu_used > 0
        assert "parameters" in metrics.memory.gpu_by_label


class TestCrossValidation:
    @staticmethod
    def _static(code, message, location="core/runner.py:10"):
        return Finding("res-typestate", Severity.ERROR, code, message,
                       subject="f", location=location)

    def test_corroborated_leak(self):
        report = LeakReport(records=[LeakRecord(
            protocol="memory-pool", code="RES007", resource="gpu0",
            detail="leak")])
        static = [self._static(
            "RES001", "memory-pool label 'x' never freed")]
        verdicts = cross_validate(static, report)
        assert [v.code for v in verdicts] == ["RES009"]
        assert "corroborated" in verdicts[0].message

    def test_dynamic_only_leak(self):
        report = LeakReport(records=[LeakRecord(
            protocol="flow-epoch", code="RES007", resource="flow:3",
            detail="still active")])
        verdicts = cross_validate([], report)
        assert [v.code for v in verdicts] == ["RES009"]
        assert "dynamic-only" in verdicts[0].message

    def test_static_without_runtime_counterpart(self):
        static = [self._static(
            "RES002", "ledger-reservation token leaks on the "
            "exception path")]
        verdicts = cross_validate(static, LeakReport())
        assert [v.code for v in verdicts] == ["RES009"]
        assert "latent" in verdicts[0].message

    def test_clean_everywhere_is_silent(self):
        assert cross_validate([], LeakReport()) == []
