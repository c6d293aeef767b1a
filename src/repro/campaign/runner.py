"""Campaign execution: cache lookup, worker pool, deterministic report.

The runner expands a :class:`~repro.campaign.spec.CampaignSpec` into
jobs, serves what it can from the :class:`~repro.campaign.cache.
ResultCache`, and executes the rest — inline for one worker, across a
``multiprocessing`` pool otherwise.  :func:`execute_job` is a top-level
function taking only JSON-safe payloads, so jobs pickle cleanly to
workers; each worker rebuilds its own simulator state from the spec, and
the simulator itself is deterministic, so a job's payload is independent
of which process ran it or when.  Results are reassembled in expansion
order, making the report — and the cache contents — bit-identical
between serial and parallel executions (``diff_reports`` verifies
exactly this).

Wall-clock timing here measures the host machine, not simulated time;
the campaign layer sits outside the simulator's determinism envelope on
purpose (timings are reporting-only and never enter cached payloads).
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from .cache import ResultCache
from .report import CampaignReport, JobResult
from .spec import SPEC_KINDS, CampaignSpec, Job

ProgressFn = Callable[[str], None]


def execute_job(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one job from its JSON-safe form; returns the result payload.

    Top-level (picklable) on purpose: this is the function the worker
    pool imports by name.  The job's kind names its spec class in
    :data:`~repro.campaign.spec.SPEC_KINDS`; the spec's ``run()`` does
    the work.
    """
    kind = payload["kind"]
    if kind not in SPEC_KINDS:
        raise ConfigurationError(f"unknown job kind {kind!r}")
    spec = SPEC_KINDS[kind].from_dict(payload["spec"])  # type: ignore[index, arg-type]
    result = spec.run()  # type: ignore[attr-defined]
    if kind == "experiment":
        return {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "rows": result.rows,
            "rendered": result.rendered,
        }
    if kind == "run":
        from ..core.results import metrics_to_dict

        return metrics_to_dict(result)
    return result.report.to_dict()


def _execute_timed(payload: Dict[str, object]) -> Dict[str, object]:
    """Pool target: wraps :func:`execute_job` with host-side timing."""
    started = time.perf_counter()
    result = execute_job(payload)
    return {"payload": result, "elapsed_s": time.perf_counter() - started}


def run_campaign(campaign: CampaignSpec, *,
                 workers: int = 1,
                 cache: Optional[ResultCache] = None,
                 progress: Optional[ProgressFn] = None) -> CampaignReport:
    """Execute a campaign and return its report.

    ``cache=None`` disables caching entirely; ``workers=1`` executes
    inline (no subprocesses), which is also the fallback when nothing
    needs computing.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    say = progress or (lambda message: None)
    jobs = campaign.expand()
    started = time.perf_counter()

    slots: List[Optional[JobResult]] = [None] * len(jobs)
    pending: List[Tuple[int, Job, str]] = []
    for index, job in enumerate(jobs):
        key = job.cache_key(salt=cache.salt if cache else None)
        payload = cache.get(key) if cache is not None else None
        if payload is not None:
            slots[index] = JobResult(job_id=job.job_id, kind=job.kind,
                                     key=key, cached=True, elapsed_s=0.0,
                                     payload=payload)
            say(f"cached   {job.job_id}")
        else:
            pending.append((index, job, key))

    if pending:
        payloads = [job.to_payload() for _, job, _ in pending]
        if workers == 1 or len(pending) == 1:
            outcomes = []
            for payload in payloads:
                say(f"running  {payload['job_id']}")
                outcomes.append(_execute_timed(payload))
        else:
            say(f"running  {len(pending)} jobs on {workers} workers")
            with multiprocessing.Pool(processes=workers) as pool:
                outcomes = pool.map(_execute_timed, payloads)
        for (index, job, key), outcome in zip(pending, outcomes):
            result_payload = outcome["payload"]
            if cache is not None:
                cache.put(key, kind=job.kind, spec=job.spec.to_dict(),
                          payload=result_payload)
            slots[index] = JobResult(
                job_id=job.job_id, kind=job.kind, key=key, cached=False,
                elapsed_s=outcome["elapsed_s"], payload=result_payload,
            )

    report = CampaignReport(
        name=campaign.name, workers=workers,
        elapsed_s=time.perf_counter() - started,
        jobs=[slot for slot in slots if slot is not None],
    )
    say(report.summary())
    return report
