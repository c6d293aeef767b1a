"""Fig.-5-style ASCII lane rendering over trace spans.

This is the single implementation of the at-a-glance timeline rendering:
Fig. 5, the examples and the golden harness all call :func:`render_rank`
on a run's spans.  The binning algorithm is unchanged from the original
renderer on purpose — the golden harness pins its output byte-for-byte.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from ..runtime.kernels import KernelKind
from .model import Lane, Span

#: Single-character glyphs for the ASCII rendering, by kernel kind.
GLYPHS: Dict[KernelKind, str] = {
    KernelKind.GEMM: "G",
    KernelKind.ELEMENTWISE: "e",
    KernelKind.TRANSFORM: "t",
    KernelKind.MEMORY: "m",
    KernelKind.OPTIMIZER: "O",
    KernelKind.NCCL_ALL_REDUCE: "R",
    KernelKind.NCCL_REDUCE: "r",
    KernelKind.NCCL_ALL_GATHER: "A",
    KernelKind.NCCL_BROADCAST: "B",
    KernelKind.NCCL_SEND_RECV: "s",
    KernelKind.HOST_TRANSFER: "H",
    KernelKind.NVME_IO: "N",
    KernelKind.CPU_OPTIMIZER: "C",
    KernelKind.IDLE: ".",
}


def render_rank(spans: Iterable[Span], rank: int, *, width: int = 100,
                window: Optional[Tuple[float, float]] = None) -> str:
    """ASCII rendering of one rank's lanes (Fig.-5 style).

    Each lane is a row of ``width`` characters; the dominant kernel kind
    within each time bin picks the glyph.  ``window`` defaults to the
    overall span bounds of *all* the given spans (all ranks), so
    side-by-side rank renders share a time axis.
    """
    if width < 1:
        raise ConfigurationError("width must be positive")
    spans = list(spans)
    if window is not None:
        start, end = window
    elif spans:
        start = min(s.start for s in spans)
        end = max(s.end for s in spans)
    else:
        start, end = (0.0, 0.0)
    if end <= start:
        return ""
    bin_width = (end - start) / width
    rows = []
    for lane in Lane:
        occupancy: List[Dict[KernelKind, float]] = [
            defaultdict(float) for _ in range(width)
        ]
        for r in spans:
            if r.rank != rank or r.lane is not lane:
                continue
            lo = max(r.start, start)
            hi = min(r.end, end)
            if hi <= lo:
                continue
            first = int((lo - start) / bin_width)
            last = min(int((hi - start) / bin_width), width - 1)
            for b in range(first, last + 1):
                b_lo = start + b * bin_width
                b_hi = b_lo + bin_width
                overlap = min(hi, b_hi) - max(lo, b_lo)
                if overlap > 0:
                    occupancy[b][r.kind] += overlap
        chars = []
        for cell in occupancy:
            if not cell:
                chars.append(" ")
                continue
            kind = max(cell, key=lambda k: cell[k])
            chars.append(GLYPHS.get(kind, "?"))
        rows.append(f"{lane.name.lower():>13} |{''.join(chars)}|")
    return "\n".join(rows)
