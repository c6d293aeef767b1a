"""Timeline traces and Fig.-5-style rendering."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.kernels import KernelKind
from repro.telemetry.timeline import GLYPHS, Lane, Timeline
from repro.trace.model import Span
from repro.trace.query import overlap_fraction


@pytest.fixture()
def timeline():
    t = Timeline()
    t.record(0, Lane.COMPUTE, KernelKind.GEMM, "fwd", 0.0, 0.5)
    t.record(0, Lane.COMPUTE, KernelKind.IDLE, "wait", 0.5, 0.7)
    t.record(0, Lane.COMPUTE, KernelKind.OPTIMIZER, "adam", 0.7, 1.0)
    t.record(0, Lane.COMMUNICATION, KernelKind.NCCL_ALL_REDUCE, "ar",
             0.4, 0.7)
    t.record(1, Lane.COMPUTE, KernelKind.GEMM, "fwd", 0.0, 1.0)
    return t


class TestRecords:
    def test_filtering(self, timeline):
        assert len(timeline.records(rank=0)) == 4
        assert len(timeline.records(rank=0, lane=Lane.COMPUTE)) == 3
        assert len(timeline.records(kind=KernelKind.GEMM)) == 2

    def test_span(self, timeline):
        assert timeline.span == (0.0, 1.0)

    def test_empty_span(self):
        assert Timeline().span == (0.0, 0.0)

    def test_reversed_interval_rejected(self):
        t = Timeline()
        with pytest.raises(ConfigurationError):
            t.record(0, Lane.COMPUTE, KernelKind.GEMM, "x", 1.0, 0.5)


class TestSummaries:
    def test_busy_time_by_kind(self, timeline):
        busy = timeline.busy_time_by_kind(0, Lane.COMPUTE)
        assert busy[KernelKind.GEMM] == pytest.approx(0.5)
        assert busy[KernelKind.IDLE] == pytest.approx(0.2)

    def test_compute_busy_fraction_excludes_idle(self, timeline):
        assert timeline.compute_busy_fraction(0) == pytest.approx(0.8)
        assert timeline.compute_busy_fraction(1) == pytest.approx(1.0)

    def test_communication_time(self, timeline):
        assert timeline.communication_time(0) == pytest.approx(0.3)
        assert timeline.communication_time(1) == 0.0

    def test_idle_fraction_is_busy_complement(self, timeline):
        assert timeline.idle_fraction(0) == pytest.approx(0.2)
        assert timeline.idle_fraction(1) == pytest.approx(0.0)

    def test_overlap_fraction_over_timeline_spans(self, timeline):
        # Communication 0.4-0.7 vs non-idle compute 0.0-0.5 + 0.7-1.0:
        # only 0.4-0.5 is hidden.
        assert overlap_fraction(timeline.spans, 0) == pytest.approx(1 / 3)


class TestTraceFacade:
    """Timeline is now a facade over the repro.trace span model."""

    def test_spans_property_returns_copies(self, timeline):
        spans = timeline.spans
        assert len(spans) == 5
        assert all(isinstance(span, Span) for span in spans)
        spans.clear()
        assert len(timeline.spans) == 5  # the timeline is unaffected

    def test_records_and_spans_agree(self, timeline):
        assert timeline.records() == timeline.spans


class TestRendering:
    def test_render_shape(self, timeline):
        out = timeline.render(0, width=20)
        lines = out.splitlines()
        assert len(lines) == 3  # one per lane
        assert all("|" in line for line in lines)

    def test_render_glyphs(self, timeline):
        out = timeline.render(0, width=10)
        compute_line = out.splitlines()[0]
        assert GLYPHS[KernelKind.GEMM] in compute_line
        assert GLYPHS[KernelKind.OPTIMIZER] in compute_line

    def test_render_window(self, timeline):
        out = timeline.render(0, width=10, window=(0.0, 0.5))
        compute_line = out.splitlines()[0]
        # Pure GEMM inside this window.
        assert GLYPHS[KernelKind.OPTIMIZER] not in compute_line

    def test_render_rejects_bad_width(self, timeline):
        with pytest.raises(ConfigurationError):
            timeline.render(0, width=0)

    def test_legend_mentions_gemm(self, timeline):
        assert "gemm" in timeline.legend()
