"""Steady-state detection and analytic iteration extrapolation.

The hybrid fidelity path simulates ``warmup + HYBRID_MEASURE_ITERATIONS``
optimizer steps at full fidelity, then asks :func:`is_steady` whether
the measured (post-warmup) iterations are periodic.  Training schedules
here are deterministic and state-free across iterations, so on a
fault-free fabric every post-warmup iteration is an exact time-shifted
copy of the previous one; the detector's tolerance
(:data:`STEADY_STATE_RTOL`) only absorbs floating-point drift from
accumulating the simulation clock.  Anything that genuinely perturbs an
iteration — an injected fault window, a straggler, a link flap — shows
up orders of magnitude above the tolerance and forces the full-fidelity
fallback.

Once steady, :func:`extrapolate_execution` replicates the **last
measured iteration** forward in place, keeping every downstream consumer
consistent without special cases:

* each link ledger's records from the steady window are replicated
  shifted by ``k * period`` (same bytes, same degraded stamps, same
  record count per iteration — the perturbation differ compares ledger
  record counts and byte totals, so replication must be exact, not
  aggregated); the ledger stores the replication as a lazy block
  (:meth:`~repro.hardware.link.BandwidthLedger.replicate_shifted`), so
  extrapolating never materializes the shifted records unless a
  consumer walks them;
* rank-lane spans and, when tracing, flow/collective spans are
  replicated with ``synthetic=True`` so trace consumers can tell
  simulated activity from extrapolated activity;
* ``iteration_times`` / ``total_time`` extend by ``period`` per
  iteration, which makes the throughput profiler, the host-background
  charger, the bandwidth window, and the trace builder all see the
  extrapolated run as if it had been simulated.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Sequence

from ...trace.model import Span
from ...units import Seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...hardware.cluster import Cluster
    from ...runtime.executor import ExecutionResult
    from ...trace.recorder import TraceRecorder

#: Post-warmup iterations simulated at full fidelity before extrapolating.
#: Two is the minimum that lets the detector compare consecutive measured
#: iterations; the second doubles as the replication template.
HYBRID_MEASURE_ITERATIONS = 2

#: Relative tolerance for the per-iteration duration deltas.  Identical
#: iterations agree to ~1e-12 relative (clock accumulation dust); real
#: perturbations (faults, stragglers) differ by >1e-3.
STEADY_STATE_RTOL = 1e-9


def hybrid_simulated_iterations(iterations: int,
                                warmup_iterations: int) -> int:
    """How many iterations the hybrid path simulates on the DES."""
    return min(iterations, warmup_iterations + HYBRID_MEASURE_ITERATIONS)


def is_steady(iteration_times: Sequence[Seconds], warmup_iterations: int,
              *, rtol: float = STEADY_STATE_RTOL) -> bool:
    """Whether the measured (post-warmup) iterations are periodic."""
    measured = list(iteration_times[warmup_iterations:])
    if len(measured) < 2:
        return False
    reference = measured[-1]
    if reference <= 0:
        return False
    return all(abs(value - reference) <= rtol * reference
               for value in measured[:-1])


def extrapolate_execution(cluster: "Cluster", result: "ExecutionResult",
                          recorder: Optional["TraceRecorder"],
                          target_iterations: int) -> int:
    """Extend ``result`` in place from its simulated iterations to
    ``target_iterations`` by replicating the last measured iteration.

    Must run *before* post-run accounting that scales with the total
    time or iteration count (host-background charging, bandwidth
    windows, trace building).  Returns the number of iterations added.
    """
    simulated = len(result.iteration_times)
    extra = target_iterations - simulated
    if extra <= 0:
        return 0
    period = result.iteration_times[-1]
    template_start = result.total_time - period
    # Records/spans at the template boundary are part of the template;
    # the epsilon only absorbs clock-accumulation dust at the boundary.
    eps = max(period, 1.0) * 1e-9

    for link in cluster.topology.links:
        template = [record for record in link.ledger
                    if record.start >= template_start - eps]
        link.ledger.replicate_shifted(template, period, extra)

    span_template = [span for span in result.spans
                     if span.start >= template_start - eps]
    for k in range(1, extra + 1):
        shift = k * period
        for s in span_template:
            result.spans.append(Span(s.rank, s.lane, s.kind, s.name,
                                     s.start + shift, s.end + shift,
                                     synthetic=True))

    if recorder is not None:
        _replicate_trace_spans(recorder, template_start - eps, period, extra)

    per_iteration_events = result.events_processed / max(1, simulated)
    result.iteration_times.extend([period] * extra)
    result.total_time += extra * period
    result.events_extrapolated = int(round(per_iteration_events * extra))
    result.extrapolated_iterations = extra
    return extra


def _replicate_trace_spans(recorder: "TraceRecorder", cutoff: Seconds,
                           period: Seconds, extra: int) -> None:
    """Replicate the recorder's steady-window flow/collective spans.

    Synthetic flow spans get fresh ids past the highest recorded one so
    every flow id in the final trace stays unique.
    """
    flow_template = [span for span in recorder.flows if span.start >= cutoff]
    coll_template = [span for span in recorder.collectives
                     if span.start >= cutoff]
    next_id = max((span.flow_id for span in recorder.flows), default=-1) + 1
    for k in range(1, extra + 1):
        shift = k * period
        for span in flow_template:
            recorder.flows.append(replace(
                span, flow_id=next_id, start=span.start + shift,
                end=span.end + shift, synthetic=True,
            ))
            next_id += 1
        for span in coll_template:
            recorder.collectives.append(replace(
                span, start=span.start + shift, end=span.end + shift,
                synthetic=True,
            ))
