"""Trace query API: span filtering and busy/idle/overlap fractions.

All functions are pure views over span lists — a trace's ``spans`` or a
run's ``ExecutionResult.spans``; nothing here mutates them.  Idle spans
are excluded from busy time, and fractions are clamped to 1.0 against
the all-rank wall clock.  Per-link byte totals are
:class:`~repro.trace.model.Trace` methods (``per_link_bytes``,
``flow_bytes_by_link``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from ..hardware.link import merge_intervals
from ..runtime.kernels import KernelKind
from .model import Lane, Span


def filter_spans(spans: Iterable[Span], *, rank: Optional[int] = None,
                 lane: Optional[Lane] = None,
                 kind: Optional[KernelKind] = None) -> List[Span]:
    """Spans matching every given criterion, in input order."""
    out: Iterable[Span] = spans
    if rank is not None:
        out = [s for s in out if s.rank == rank]
    if lane is not None:
        out = [s for s in out if s.lane is lane]
    if kind is not None:
        out = [s for s in out if s.kind is kind]
    return list(out)


def span_bounds(spans: Iterable[Span]) -> Tuple[float, float]:
    spans = list(spans)
    if not spans:
        return (0.0, 0.0)
    return (min(s.start for s in spans), max(s.end for s in spans))


def busy_time_by_kind(spans: Iterable[Span], rank: int,
                      lane: Optional[Lane] = None) -> Dict[KernelKind, float]:
    out: Dict[KernelKind, float] = defaultdict(float)
    for s in filter_spans(spans, rank=rank, lane=lane):
        out[s.kind] += s.duration
    return dict(out)


def compute_busy_fraction(spans: Iterable[Span], rank: int) -> float:
    """Fraction of wall time the GPU compute lane is non-idle.

    The complement is Fig. 5's "white" idle time — communication or
    offload stalls the GPU cannot hide.
    """
    spans = list(spans)
    start, end = span_bounds(spans)
    wall = end - start
    if wall <= 0:
        return 0.0
    busy = sum(
        s.duration for s in filter_spans(spans, rank=rank, lane=Lane.COMPUTE)
        if s.kind is not KernelKind.IDLE
    )
    return min(1.0, busy / wall)


def communication_time(spans: Iterable[Span], rank: int) -> float:
    return sum(
        s.duration
        for s in filter_spans(spans, rank=rank, lane=Lane.COMMUNICATION)
    )


def idle_fraction(spans: Iterable[Span], rank: int) -> float:
    """Complement of :func:`compute_busy_fraction`."""
    return 1.0 - compute_busy_fraction(spans, rank)


def _merged_busy_intervals(spans: Iterable[Span]) -> List[Tuple[float, float]]:
    """Union of the given spans' intervals as sorted disjoint windows."""
    return merge_intervals((s.start, s.end) for s in spans if s.end > s.start)


def overlap_fraction(spans: Iterable[Span], rank: int,
                     lane_a: Lane = Lane.COMPUTE,
                     lane_b: Lane = Lane.COMMUNICATION) -> float:
    """Fraction of ``lane_b`` busy time hidden under ``lane_a`` activity.

    This is the paper's overlap question: how much communication runs
    concurrently with compute (1.0 = fully hidden, 0.0 = fully exposed).
    Idle spans never count as activity on either lane.
    """
    spans = list(spans)
    a = _merged_busy_intervals(
        s for s in filter_spans(spans, rank=rank, lane=lane_a)
        if s.kind is not KernelKind.IDLE
    )
    b = _merged_busy_intervals(
        s for s in filter_spans(spans, rank=rank, lane=lane_b)
        if s.kind is not KernelKind.IDLE
    )
    total_b = sum(hi - lo for lo, hi in b)
    if total_b <= 0:
        return 0.0
    overlap = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            overlap += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return min(1.0, overlap / total_b)
