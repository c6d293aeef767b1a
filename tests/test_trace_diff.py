"""Trace summarization and field-level diffing."""

import json

import pytest

from repro.compare import round_sig
from repro.runtime.kernels import KernelKind
from repro.trace.diff import diff_traces, summarize
from repro.trace.model import FlowSpan, Lane, LinkAccount, Span, Trace


@pytest.fixture()
def small_trace():
    return Trace(
        meta={"total_time": 1.0, "iterations": 2},
        spans=[
            Span(0, Lane.COMPUTE, KernelKind.GEMM, "fwd", 0.0, 0.5),
            Span(0, Lane.COMPUTE, KernelKind.GEMM, "bwd", 0.5, 0.8),
            Span(0, Lane.COMMUNICATION, KernelKind.NCCL_ALL_REDUCE, "ar",
                 0.4, 0.7),
        ],
        flows=[FlowSpan(1, "", "a", "b", ("l1",), 100.0, 0.0, 1.0)],
        links=[LinkAccount("l1", "nvlink", 100.0, 1)],
    )


def copy_trace(trace):
    return Trace.from_dict(json.loads(json.dumps(trace.to_dict())))


class TestSummarize:
    def test_counts_and_busy_time(self, small_trace):
        summary = summarize(small_trace)
        assert summary["spans/count"] == 3
        assert summary["spans/compute/gemm/count"] == 2
        assert summary["spans/compute/gemm/busy"] == pytest.approx(0.8)
        assert summary["spans/communication/nccl_all_reduce/busy"] \
            == pytest.approx(0.3)
        assert summary["links/l1/bytes"] == 100.0
        assert summary["flows/bytes"] == 100.0
        assert summary["meta/iterations"] == 2

    def test_summary_is_json_serializable(self, small_trace):
        json.dumps(summarize(small_trace))


class TestDiff:
    def test_self_diff_is_clean(self, small_trace):
        diff = diff_traces(small_trace, copy_trace(small_trace))
        assert diff.clean
        assert diff.render() == "traces match"

    def test_real_trace_self_diff_is_clean(self, traced_ddp):
        _, metrics = traced_ddp
        assert diff_traces(metrics.trace, copy_trace(metrics.trace)).clean

    def test_perturbed_bytes_detected(self, small_trace):
        other = copy_trace(small_trace)
        other.links[0] = LinkAccount("l1", "nvlink", 101.0, 1)
        diff = diff_traces(small_trace, other)
        assert not diff.clean
        assert "links/l1/bytes" in diff.changed
        assert "links/l1/bytes" in diff.render()

    def test_added_and_removed_keys_detected(self, small_trace):
        other = copy_trace(small_trace)
        other.links.append(LinkAccount("l2", "roce", 5.0, 1))
        diff = diff_traces(small_trace, other)
        assert "links/l2/bytes" in diff.added
        reverse = diff_traces(other, small_trace)
        assert "links/l2/bytes" in reverse.removed

    def test_sub_sigfig_jitter_absorbed(self, small_trace):
        other = copy_trace(small_trace)
        other.links[0] = LinkAccount("l1", "nvlink", 100.0 * (1 + 1e-12), 1)
        assert diff_traces(small_trace, other).clean

    def test_span_count_change_detected(self, small_trace):
        other = copy_trace(small_trace)
        other.spans.append(
            Span(0, Lane.COMPUTE, KernelKind.OPTIMIZER, "adam", 0.8, 1.0)
        )
        diff = diff_traces(small_trace, other)
        assert "spans/count" in diff.changed
        assert "spans/compute/optimizer/count" in diff.added


class TestRoundSig:
    def test_zero_and_nonfinite_pass_through(self):
        assert round_sig(0.0) == 0.0
        assert round_sig(float("inf")) == float("inf")

    def test_rounds_to_six_significant_figures(self):
        assert round_sig(123.4567891) == 123.457
        assert round_sig(0.0001234567) == pytest.approx(0.000123457)
