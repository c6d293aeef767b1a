"""The serving result payload: latency percentiles, goodput, SLOs.

:class:`InferenceReport` is to a serving run what
:class:`~repro.cluster.report.ClusterReport` is to a cluster run: a
JSON-safe, schema-versioned summary (the shared results
``SCHEMA_VERSION``) the CLI prints, campaigns cache, and the
determinism tests field-diff via :meth:`InferenceReport.headline`.
Percentiles use the cluster report's deterministic nearest-rank
:func:`~repro.cluster.report.percentile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..cluster.report import percentile
from ..core.results import SCHEMA_VERSION, numeric_headline
from ..sim.leaksan import LeakReport
from .batching import RequestRecord, ServingStats


@dataclass
class InferenceReport:
    """Everything one serving run measured."""

    spec_label: str
    batching: str
    nodes: int
    num_gpus: int
    total_time_s: float
    requests_submitted: int
    requests_completed: int
    ttft_p50_s: float
    ttft_p99_s: float
    tpot_p50_s: float
    tpot_p99_s: float
    queue_wait_p50_s: float
    queue_wait_p99_s: float
    goodput_requests_per_s: float
    goodput_tokens_per_s: float
    #: fraction of completed requests meeting both TTFT and TPOT SLOs
    slo_attainment: float
    prefill_steps: int
    decode_steps: int
    max_active_requests: int
    max_batch_tokens: int
    kv_budget_bytes: float
    kv_peak_bytes: float
    events_processed: int
    events_folded: int
    tokens_generated: int = 0
    leaks: Optional[LeakReport] = None
    extras: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "kind": "inference",
            "spec_label": self.spec_label,
            "batching": self.batching,
            "nodes": self.nodes,
            "num_gpus": self.num_gpus,
            "total_time_s": round(self.total_time_s, 9),
            "requests_submitted": self.requests_submitted,
            "requests_completed": self.requests_completed,
            "ttft_p50_s": round(self.ttft_p50_s, 9),
            "ttft_p99_s": round(self.ttft_p99_s, 9),
            "tpot_p50_s": round(self.tpot_p50_s, 9),
            "tpot_p99_s": round(self.tpot_p99_s, 9),
            "queue_wait_p50_s": round(self.queue_wait_p50_s, 9),
            "queue_wait_p99_s": round(self.queue_wait_p99_s, 9),
            "goodput_requests_per_s": round(self.goodput_requests_per_s, 9),
            "goodput_tokens_per_s": round(self.goodput_tokens_per_s, 9),
            "slo_attainment": round(self.slo_attainment, 9),
            "prefill_steps": self.prefill_steps,
            "decode_steps": self.decode_steps,
            "max_active_requests": self.max_active_requests,
            "max_batch_tokens": self.max_batch_tokens,
            "kv_budget_bytes": round(self.kv_budget_bytes, 3),
            "kv_peak_bytes": round(self.kv_peak_bytes, 3),
            "tokens_generated": self.tokens_generated,
            "events_processed": self.events_processed,
            "events_folded": self.events_folded,
            "leaks": self.leaks.to_dict() if self.leaks is not None else None,
        }
        payload.update(self.extras)
        return payload

    def headline(self) -> Dict[str, float]:
        """Flat numeric fields for the perturbation differ."""
        return numeric_headline(self.to_dict())


def build_report(spec_label: str, batching: str, *,
                 nodes: int, num_gpus: int, total_time: float,
                 records: Sequence[RequestRecord], stats: ServingStats,
                 slo_ttft_s: float, slo_tpot_s: float,
                 kv_budget_bytes: float, kv_peak_bytes: float,
                 events_processed: int, events_folded: int,
                 leaks: Optional[LeakReport] = None) -> InferenceReport:
    """Assemble the report from the finished request records."""
    done = [record for record in records if record.done]
    ttfts: List[float] = [record.ttft_s for record in done
                          if record.ttft_s is not None]
    tpots: List[float] = [record.tpot_s for record in done
                          if record.tpot_s is not None]
    waits = [record.queue_wait_s for record in done]
    within_slo = sum(
        1 for record in done
        if record.ttft_s is not None and record.ttft_s <= slo_ttft_s
        and record.tpot_s is not None and record.tpot_s <= slo_tpot_s
    )
    tokens = sum(record.request.output_tokens for record in done)
    return InferenceReport(
        spec_label=spec_label,
        batching=batching,
        nodes=nodes,
        num_gpus=num_gpus,
        total_time_s=total_time,
        requests_submitted=len(records),
        requests_completed=len(done),
        ttft_p50_s=percentile(ttfts, 0.50),
        ttft_p99_s=percentile(ttfts, 0.99),
        tpot_p50_s=percentile(tpots, 0.50),
        tpot_p99_s=percentile(tpots, 0.99),
        queue_wait_p50_s=percentile(waits, 0.50),
        queue_wait_p99_s=percentile(waits, 0.99),
        goodput_requests_per_s=(
            len(done) / total_time if total_time else 0.0
        ),
        goodput_tokens_per_s=(tokens / total_time if total_time else 0.0),
        slo_attainment=(within_slo / len(done) if done else 0.0),
        prefill_steps=stats.prefill_steps,
        decode_steps=stats.decode_steps,
        max_active_requests=stats.max_active_requests,
        max_batch_tokens=stats.max_batch_tokens,
        kv_budget_bytes=kv_budget_bytes,
        kv_peak_bytes=kv_peak_bytes,
        tokens_generated=tokens,
        events_processed=events_processed,
        events_folded=events_folded,
        leaks=leaks,
    )
