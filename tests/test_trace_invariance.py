"""Tracing must be an observer: no headline metric may move.

The recorder hooks only append to Python lists — they never post engine
events — so a traced run must produce bit-identical headline metrics
(iteration times, TFLOP/s, every ledger's record count and byte total)
to an untraced one, under the FIFO schedule and under the DET120
perturbation orders alike.
"""

import pytest

from repro.analysis.determinism.differ import headline_fields
from repro.core.runner import run_training
from repro.core.search import model_for_billions
from repro.experiments.common import make_strategy
from repro.faults.plan import FaultPlan
from repro.hardware.presets import dual_node_cluster
from repro.sim.engine import ReversedTies
from repro.trace import (
    reconcile_findings,
    render_rank,
    to_chrome,
    validate_chrome_trace,
)


def run_once(trace, tie_order=None):
    cluster = dual_node_cluster()
    metrics = run_training(cluster, make_strategy("ddp"),
                           model_for_billions(0.7), iterations=2,
                           tie_order=tie_order, trace=trace)
    return cluster, metrics


class TestTracingInvariance:
    def test_headline_fields_identical_with_tracing_on(self, traced_ddp):
        traced_cluster, traced_metrics = traced_ddp
        cluster, metrics = run_once(trace=False)
        # Exact comparison, no rounding: the recorder must not move a
        # single float anywhere in the run.
        assert headline_fields(traced_metrics, traced_cluster) \
            == headline_fields(metrics, cluster)

    def test_invariance_holds_under_perturbed_tie_order(self):
        base_cluster, untraced = run_once(trace=False,
                                          tie_order=ReversedTies())
        cluster, traced = run_once(trace=True, tie_order=ReversedTies())
        assert headline_fields(traced, cluster) \
            == headline_fields(untraced, base_cluster)

    def test_fig5_render_identical_with_tracing_on(self, traced_ddp):
        _, traced_metrics = traced_ddp
        _, metrics = run_once(trace=False)
        window = (0.0, traced_metrics.execution.total_time)
        assert render_rank(traced_metrics.execution.spans, 0,
                           window=window) \
            == render_rank(metrics.execution.spans, 0, window=window)

    def test_trace_present_only_when_requested(self, traced_ddp):
        _, traced_metrics = traced_ddp
        _, metrics = run_once(trace=False)
        assert traced_metrics.trace is not None
        assert metrics.trace is None

    def test_trace_meta_describes_the_run(self, traced_ddp):
        _, metrics = traced_ddp
        meta = metrics.trace.meta
        assert meta["strategy"] == "ddp"
        assert meta["num_gpus"] == 8
        assert meta["iterations"] == 2
        assert meta["total_time"] == pytest.approx(
            metrics.execution.total_time
        )

    def test_fault_free_run_has_no_fault_spans(self, traced_ddp):
        _, metrics = traced_ddp
        assert metrics.trace.faults == []


class TestFaultedTrace:
    def test_injected_fault_windows_become_fault_spans(self):
        plan = FaultPlan.parse(
            ["node0.nic0:degrade@t=2ms,dur=40ms,mag=0.5"], seed=7)
        cluster = dual_node_cluster()
        metrics = run_training(cluster, make_strategy("zero3"),
                               model_for_billions(0.7), iterations=2,
                               fault_plan=plan, trace=True)
        trace = metrics.trace
        assert [(f.kind, f.target) for f in trace.faults] \
            == [("degrade", "node0/nic0")]
        assert trace.faults[0].start == pytest.approx(0.002)
        assert trace.faults[0].end == pytest.approx(0.042)
        assert trace.faults[0].magnitude == pytest.approx(0.5)
        # A degraded run still exports validly and reconciles exactly,
        # and the degraded ledger stamps survive into the link accounts.
        assert validate_chrome_trace(to_chrome(trace)) == []
        assert reconcile_findings(trace, cluster) == []
        assert any(account.degraded for account in trace.links)
