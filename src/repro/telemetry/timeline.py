"""Execution timelines — the nsys-style traces of paper Fig. 5.

The executor records every step it runs as a
:class:`~repro.trace.model.Span` with a rank, a lane (compute /
communication / host-IO, mirroring concurrent CUDA streams), a kernel
kind, and an interval.  :class:`Timeline` offers queries (busy time by
kind, idle fraction) and an ASCII rendering that reproduces Fig. 5's
at-a-glance comparison of strategies.

This module is a facade: the span model, the query functions, and the
rendering all live in :mod:`repro.trace` (the structured tracing
subsystem), so the ASCII figure and the exported Perfetto traces share
one source of truth.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..runtime.kernels import KernelKind
from ..trace import query as _query
from ..trace.ascii import GLYPHS, legend_text, render_rank
from ..trace.model import Lane, Span

__all__ = ["GLYPHS", "Lane", "Timeline"]


class Timeline:
    """An append-only store of trace records with summary queries."""

    def __init__(self) -> None:
        self._records: List[Span] = []

    def record(self, rank: int, lane: Lane, kind: KernelKind, name: str,
               start: float, end: float, synthetic: bool = False) -> None:
        if end < start:
            raise ConfigurationError("trace interval is reversed")
        self._records.append(Span(rank, lane, kind, name, start, end,
                                  synthetic=synthetic))

    def extend_shifted(self, template: List[Span], shift: float) -> None:
        """Bulk-append ``template`` spans moved forward by ``shift``.

        Replicated spans are marked synthetic.  The hybrid extrapolator
        replicates one steady iteration's spans tens of times; this skips
        the per-call interval validation the template already passed.
        """
        self._records.extend(
            Span(s.rank, s.lane, s.kind, s.name, s.start + shift,
                 s.end + shift, synthetic=True)
            for s in template
        )

    def __len__(self) -> int:
        return len(self._records)

    @property
    def spans(self) -> List[Span]:
        """The recorded spans, in recording order (trace-model view)."""
        return list(self._records)

    def records(self, *, rank: Optional[int] = None,
                lane: Optional[Lane] = None,
                kind: Optional[KernelKind] = None) -> List[Span]:
        return _query.filter_spans(self._records, rank=rank, lane=lane,
                                   kind=kind)

    @property
    def span(self) -> Tuple[float, float]:
        return _query.span_bounds(self._records)

    # -- summaries ---------------------------------------------------------------
    def busy_time_by_kind(self, rank: int,
                          lane: Optional[Lane] = None) -> Dict[KernelKind, float]:
        return _query.busy_time_by_kind(self._records, rank, lane)

    def compute_busy_fraction(self, rank: int) -> float:
        """Fraction of wall time the GPU compute lane is non-idle.

        The complement is Fig. 5's "white" idle time — communication or
        offload stalls the GPU cannot hide.
        """
        return _query.compute_busy_fraction(self._records, rank)

    def communication_time(self, rank: int) -> float:
        return _query.communication_time(self._records, rank)

    def idle_fraction(self, rank: int) -> float:
        return _query.idle_fraction(self._records, rank)

    # -- rendering -----------------------------------------------------------------
    def render(self, rank: int, *, width: int = 100,
               window: Optional[Tuple[float, float]] = None) -> str:
        """ASCII rendering of one rank's lanes (Fig.-5 style).

        Each lane is a row of ``width`` characters; the dominant kernel
        kind within each time bin picks the glyph.
        """
        return render_rank(self._records, rank, width=width, window=window)

    def legend(self) -> str:
        return legend_text()
