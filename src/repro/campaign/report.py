"""Campaign reports and the serial-vs-parallel field-identity check.

:class:`CampaignReport` records, per job, the cache key, whether it was
served from cache, and the JSON payload — in the campaign's canonical
expansion order, regardless of worker completion order.

:func:`diff_reports` is the campaign analog of the determinism differ's
perturbation check: two reports of the same campaign (e.g. one serial,
one with four workers) flatten every job, whatever its kind, by the one
headline rule and compare the flats by the one field rule
(:func:`repro.compare.diff_fields`).  An empty diff certifies the
worker pool changed nothing but the wall clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union

from ..compare import diff_fields
from ..core.results import headline_from_payload

#: Layout version of a saved campaign report.
REPORT_SCHEMA = 1


@dataclass
class JobResult:
    """One executed (or cache-served) campaign job."""

    job_id: str
    kind: str
    key: str
    cached: bool
    elapsed_s: float
    payload: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "key": self.key,
            "cached": self.cached,
            "elapsed_s": self.elapsed_s,
            "payload": self.payload,
        }


@dataclass
class CampaignReport:
    """All job results of one campaign execution."""

    name: str
    workers: int
    elapsed_s: float = 0.0
    jobs: List[JobResult] = field(default_factory=list)

    @property
    def hits(self) -> int:
        return sum(1 for job in self.jobs if job.cached)

    @property
    def misses(self) -> int:
        return len(self.jobs) - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / len(self.jobs) if self.jobs else 0.0

    def job(self, job_id: str) -> JobResult:
        for result in self.jobs:
            if result.job_id == job_id:
                return result
        raise KeyError(f"no job {job_id!r} in campaign {self.name!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": REPORT_SCHEMA,
            "name": self.name,
            "workers": self.workers,
            "elapsed_s": self.elapsed_s,
            "job_count": len(self.jobs),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "hit_rate": self.hit_rate,
            "jobs": [job.to_dict() for job in self.jobs],
        }

    def save(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        target.write_text(json.dumps(self.to_dict(), indent=2))
        return target

    def summary(self) -> str:
        return (
            f"campaign {self.name!r}: {len(self.jobs)} jobs "
            f"({self.hits} cached, {self.misses} computed) with "
            f"{self.workers} worker(s) in {self.elapsed_s:.1f}s"
        )


def flatten_job(job: JobResult) -> Dict[str, object]:
    """Scalar ``{field: value}`` pairs of one job's payload."""
    return headline_from_payload(job.payload)


def diff_reports(a: CampaignReport, b: CampaignReport
                 ) -> List[Dict[str, object]]:
    """Field-level differences between two runs of the same campaign.

    Floats agree to six significant figures, every other value exactly;
    entries carry the unrounded values, and
    :data:`repro.compare.MISSING` for a field one side lacks.  Empty
    list == field-identical.
    """
    diffs: List[Dict[str, object]] = []
    jobs_a = {job.job_id: job for job in a.jobs}
    jobs_b = {job.job_id: job for job in b.jobs}
    for job_id in sorted(set(jobs_a) | set(jobs_b)):
        if job_id not in jobs_a or job_id not in jobs_b:
            present = a.name if job_id in jobs_a else b.name
            diffs.append({"job_id": job_id, "field": "(job)",
                          "a": job_id in jobs_a, "b": job_id in jobs_b,
                          "note": f"only in {present!r}"})
            continue
        for key, value_a, value_b in diff_fields(
                flatten_job(jobs_a[job_id]), flatten_job(jobs_b[job_id])):
            diffs.append({"job_id": job_id, "field": key,
                          "a": value_a, "b": value_b})
    return diffs
