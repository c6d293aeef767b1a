"""Trace summarization and field-level trace diffing.

:func:`summarize` flattens a trace into a stable ``{key: value}`` table
(span counts and busy seconds per lane/kind, flow and collective
totals, per-link bytes, counter integrals, fault counts) — the compact
artifact the golden harness snapshots.  :func:`diff_traces` compares two
summaries by the one field rule (:func:`repro.compare.diff_fields`, the
determinism differ's), reporting keys that appeared, vanished, or
changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..compare import MISSING, diff_fields
from .model import Lane, Trace
from .query import busy_time_by_kind


def summarize(trace: Trace) -> Dict[str, object]:
    """Flatten a trace into a deterministic, diffable key/value table."""
    out: Dict[str, object] = {
        "meta/total_time": trace.meta.get("total_time", 0.0),
        "meta/iterations": trace.meta.get("iterations", 0),
        "spans/count": len(trace.spans),
        "collectives/count": len(trace.collectives),
        "flows/count": len(trace.flows),
        "faults/count": len(trace.faults),
        "links/count": len(trace.links),
        "counters/count": len(trace.counters),
    }
    for lane in Lane:
        merged: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for rank in trace.ranks:
            for kind, busy in busy_time_by_kind(
                trace.spans, rank, lane
            ).items():
                merged[kind.value] = merged.get(kind.value, 0.0) + busy
            for span in trace.spans:
                if span.rank == rank and span.lane is lane:
                    counts[span.kind.value] = counts.get(span.kind.value, 0) + 1
        for kind_name in sorted(merged):
            prefix = f"spans/{lane}/{kind_name}"
            out[f"{prefix}/count"] = counts[kind_name]
            out[f"{prefix}/busy"] = merged[kind_name]
    out["flows/bytes"] = sum(f.num_bytes for f in trace.flows)
    out["collectives/payload_bytes"] = sum(
        c.payload_bytes for c in trace.collectives
    )
    for account in sorted(trace.links, key=lambda a: a.name):
        out[f"links/{account.name}/bytes"] = account.total_bytes
        out[f"links/{account.name}/records"] = account.record_count
    for track in sorted(trace.counters, key=lambda t: t.name):
        out[f"counters/{track.name}/integral"] = track.integral()
    return out


@dataclass
class TraceDiff:
    """Field-level differences between two trace summaries."""

    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    changed: Dict[str, Tuple[object, object]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not (self.added or self.removed or self.changed)

    def render(self) -> str:
        if self.clean:
            return "traces match"
        lines: List[str] = []
        for key in self.removed:
            lines.append(f"- {key}")
        for key in self.added:
            lines.append(f"+ {key}")
        for key, (old, new) in self.changed.items():
            lines.append(f"~ {key}: {old!r} -> {new!r}")
        return "\n".join(lines)


def diff_traces(a: Trace, b: Trace) -> TraceDiff:
    """Compare two traces via their summaries (floats rounded)."""
    diff = TraceDiff()
    for key, old, new in diff_fields(summarize(a), summarize(b)):
        if old is MISSING:
            diff.added.append(key)
        elif new is MISSING:
            diff.removed.append(key)
        else:
            diff.changed[key] = (old, new)
    return diff
