"""Trace query API (filters, busy/idle/overlap fractions) and the
Fig.-5 ASCII render over the same spans."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.kernels import KernelKind
from repro.trace.ascii import GLYPHS, render_rank
from repro.trace.model import Lane, Span
from repro.trace.query import (
    busy_time_by_kind,
    communication_time,
    compute_busy_fraction,
    filter_spans,
    idle_fraction,
    overlap_fraction,
    span_bounds,
)


@pytest.fixture()
def spans():
    return [
        Span(0, Lane.COMPUTE, KernelKind.GEMM, "fwd", 0.0, 0.5),
        Span(0, Lane.COMPUTE, KernelKind.IDLE, "wait", 0.5, 0.7),
        Span(0, Lane.COMPUTE, KernelKind.OPTIMIZER, "adam", 0.7, 1.0),
        Span(0, Lane.COMMUNICATION, KernelKind.NCCL_ALL_REDUCE, "ar",
             0.4, 0.8),
        Span(1, Lane.COMPUTE, KernelKind.GEMM, "fwd", 0.0, 1.0),
    ]


class TestFilters:
    def test_filter_by_rank_lane_kind(self, spans):
        assert len(filter_spans(spans, rank=0)) == 4
        assert len(filter_spans(spans, rank=0, lane=Lane.COMPUTE)) == 3
        assert len(filter_spans(spans, kind=KernelKind.GEMM)) == 2
        assert filter_spans(spans, rank=1, lane=Lane.COMMUNICATION) == []

    def test_span_bounds(self, spans):
        assert span_bounds(spans) == (0.0, 1.0)
        assert span_bounds([]) == (0.0, 0.0)

    def test_busy_time_by_kind(self, spans):
        busy = busy_time_by_kind(spans, 0, Lane.COMPUTE)
        assert busy[KernelKind.GEMM] == pytest.approx(0.5)
        assert busy[KernelKind.IDLE] == pytest.approx(0.2)


class TestFractions:
    def test_compute_busy_excludes_idle(self, spans):
        assert compute_busy_fraction(spans, 0) == pytest.approx(0.8)
        assert compute_busy_fraction(spans, 1) == pytest.approx(1.0)

    def test_idle_fraction_is_complement(self, spans):
        assert idle_fraction(spans, 0) == pytest.approx(0.2)
        assert idle_fraction(spans, 1) == pytest.approx(0.0)

    def test_communication_time(self, spans):
        assert communication_time(spans, 0) == pytest.approx(0.4)
        assert communication_time(spans, 1) == 0.0

    def test_empty_spans_give_zero(self):
        assert compute_busy_fraction([], 0) == 0.0


class TestOverlap:
    def test_partial_overlap(self, spans):
        # Communication 0.4-0.8; compute busy 0.0-0.5 and 0.7-1.0
        # (the 0.5-0.7 idle span does not count): overlap 0.2 of 0.4.
        assert overlap_fraction(spans, 0) == pytest.approx(0.5)
        # Ending exactly where compute resumes (0.7) hides only 0.4-0.5.
        touching = spans[:3] + [
            Span(0, Lane.COMMUNICATION, KernelKind.NCCL_ALL_REDUCE, "ar",
                 0.4, 0.7),
        ]
        assert overlap_fraction(touching, 0) == pytest.approx(1 / 3)

    def test_fully_hidden(self):
        spans = [
            Span(0, Lane.COMPUTE, KernelKind.GEMM, "f", 0.0, 1.0),
            Span(0, Lane.COMMUNICATION, KernelKind.NCCL_ALL_REDUCE, "ar",
                 0.2, 0.6),
        ]
        assert overlap_fraction(spans, 0) == pytest.approx(1.0)

    def test_fully_exposed(self):
        spans = [
            Span(0, Lane.COMPUTE, KernelKind.GEMM, "f", 0.0, 0.5),
            Span(0, Lane.COMMUNICATION, KernelKind.NCCL_ALL_REDUCE, "ar",
                 0.5, 1.0),
        ]
        assert overlap_fraction(spans, 0) == 0.0

    def test_no_communication_gives_zero(self):
        spans = [Span(0, Lane.COMPUTE, KernelKind.GEMM, "f", 0.0, 1.0)]
        assert overlap_fraction(spans, 0) == 0.0

    def test_adjacent_compute_spans_merge(self):
        spans = [
            Span(0, Lane.COMPUTE, KernelKind.GEMM, "a", 0.0, 0.5),
            Span(0, Lane.COMPUTE, KernelKind.ELEMENTWISE, "b", 0.5, 1.0),
            Span(0, Lane.COMMUNICATION, KernelKind.NCCL_ALL_REDUCE, "ar",
                 0.25, 0.75),
        ]
        assert overlap_fraction(spans, 0) == pytest.approx(1.0)


class TestRendering:
    def test_render_shape(self, spans):
        out = render_rank(spans, 0, width=20)
        lines = out.splitlines()
        assert len(lines) == 3  # one per lane
        assert all("|" in line for line in lines)

    def test_render_glyphs(self, spans):
        out = render_rank(spans, 0, width=10)
        compute_line = out.splitlines()[0]
        assert GLYPHS[KernelKind.GEMM] in compute_line
        assert GLYPHS[KernelKind.OPTIMIZER] in compute_line

    def test_render_window(self, spans):
        out = render_rank(spans, 0, width=10, window=(0.0, 0.5))
        compute_line = out.splitlines()[0]
        # Pure GEMM inside this window.
        assert GLYPHS[KernelKind.OPTIMIZER] not in compute_line

    def test_render_rejects_bad_width(self, spans):
        with pytest.raises(ConfigurationError):
            render_rank(spans, 0, width=0)
