"""Structured tracing & trace export — the simulator's observability spine.

The paper's core evidence is *time-resolved*: Fig. 5's nsys timelines and
Figs. 9/10/12's per-link bandwidth patterns explain every headline
number.  This package turns one simulated run into an inspectable trace:

* :mod:`~repro.trace.model` — spans (kernels, collective phases, flow
  transfers, fault windows), per-link byte accounts, and counter tracks
  in one :class:`Trace` container with a stable native JSON schema;
* :mod:`~repro.trace.recorder` — the opt-in :class:`TraceRecorder`
  threaded through the flow network and executor (zero-cost when
  absent, schedule-invariant when present) plus :func:`build_trace`;
* :mod:`~repro.trace.ascii` — the Fig.-5 ASCII lane renderer;
* :mod:`~repro.trace.query` — span filtering and busy/idle/overlap
  fractions over any span list (a trace's, or a run's
  ``ExecutionResult.spans``);
* :mod:`~repro.trace.export` — Chrome Trace Event JSON (Perfetto /
  ``chrome://tracing`` loadable) with the native schema embedded, and a
  schema validator;
* :mod:`~repro.trace.diff` — field-level comparison of two traces (span
  counts, per-kind busy time, counter integrals) for the golden harness
  and the determinism differ;
* :mod:`~repro.trace.reconcile` — validation pass asserting the trace's
  per-link bytes equal the flow-ledger totals (``TRC0xx`` findings).

CLI front ends: ``repro run --trace out.json`` and ``repro trace
diff/summary/check``.
"""

from .ascii import GLYPHS, render_rank
from .diff import TraceDiff, diff_traces, summarize
from .export import (
    CHROME_COLORS,
    load_document,
    load_trace,
    to_chrome,
    trace_from_document,
    validate_chrome_trace,
    write_trace,
)
from .model import (
    TRACE_SCHEMA,
    CollectiveSpan,
    CounterTrack,
    FaultSpan,
    FlowSpan,
    Lane,
    LinkAccount,
    Span,
    Trace,
)
from .query import (
    busy_time_by_kind,
    communication_time,
    compute_busy_fraction,
    filter_spans,
    idle_fraction,
    overlap_fraction,
    span_bounds,
)
from .recorder import DEFAULT_COUNTER_SAMPLES, TraceRecorder, build_trace
from .reconcile import (
    TRACE_RECONCILE_PASS,
    reconcile_findings,
    reconcile_report,
)

__all__ = [
    "CHROME_COLORS",
    "CollectiveSpan",
    "CounterTrack",
    "DEFAULT_COUNTER_SAMPLES",
    "FaultSpan",
    "FlowSpan",
    "GLYPHS",
    "Lane",
    "LinkAccount",
    "Span",
    "TRACE_RECONCILE_PASS",
    "TRACE_SCHEMA",
    "Trace",
    "TraceDiff",
    "TraceRecorder",
    "build_trace",
    "busy_time_by_kind",
    "communication_time",
    "compute_busy_fraction",
    "diff_traces",
    "filter_spans",
    "idle_fraction",
    "load_document",
    "load_trace",
    "overlap_fraction",
    "reconcile_findings",
    "reconcile_report",
    "render_rank",
    "span_bounds",
    "summarize",
    "to_chrome",
    "trace_from_document",
    "validate_chrome_trace",
    "write_trace",
]
