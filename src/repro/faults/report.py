"""Graceful-degradation reporting: faulted run vs. healthy baseline.

:func:`degradation_report` condenses a (baseline, faulted) pair of
training runs into one JSON-friendly dict: the injected fault list, the
headline metrics of both runs, the resulting slowdown, and the degraded
windows the telemetry ledgers recorded.  All floats are rounded to a
fixed number of significant digits so that repeated runs of the same
seeded plan serialize byte-identically and golden snapshots stay stable
across harmless floating-point reorderings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..compare import round_sig
from ..hardware.link import LinkClass
from ..telemetry.bandwidth import BandwidthMonitor
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.runner import RunMetrics

#: Significant digits kept in report floats; enough to expose any real
#: metric drift, few enough to absorb last-ulp noise.
REPORT_SIG_FIGS = 9

#: Degraded-window gaps shorter than this are idle time between transfers
#: inside one fault window, not a recovery; the report coalesces them.
WINDOW_GAP_TOLERANCE = 1e-3


def _coalesce(intervals, gap: float = WINDOW_GAP_TOLERANCE) -> List[tuple]:
    out: List[tuple] = []
    for start, end in intervals:
        if out and start - out[-1][1] <= gap:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


def _rounded(value: float) -> float:
    return round_sig(value, REPORT_SIG_FIGS)


def _metrics_summary(metrics: "RunMetrics") -> Dict[str, float]:
    return {
        "iteration_time_s": _rounded(metrics.iteration_time),
        "tflops_per_gpu": _rounded(metrics.tflops),
        "total_time_s": _rounded(metrics.execution.total_time),
    }


def degradation_report(baseline: "RunMetrics", faulted: "RunMetrics",
                       plan: FaultPlan, *,
                       monitor: Optional[BandwidthMonitor] = None) -> dict:
    """One faulted run's graceful-degradation summary.

    ``monitor`` must wrap the cluster the *faulted* run executed on; when
    provided, the report includes per-interconnect-class degraded
    windows from the ledgers' fault annotations.
    """
    slowdown = (
        faulted.iteration_time / baseline.iteration_time
        if baseline.iteration_time > 0 else float("inf")
    )
    report = {
        "strategy": faulted.strategy_name,
        "seed": plan.seed,
        "model_parameters": faulted.model_parameters,
        "num_gpus": faulted.num_gpus,
        "faults": [event.to_dict() for event in plan.events],
        "baseline": _metrics_summary(baseline),
        "faulted": _metrics_summary(faulted),
        "slowdown": _rounded(slowdown),
        "throughput_retained": _rounded(
            faulted.tflops / baseline.tflops if baseline.tflops > 0 else 0.0
        ),
    }
    if monitor is not None:
        windows: Dict[str, List[List[float]]] = {}
        for link_class in LinkClass:
            merged = _coalesce(monitor.degraded_windows(link_class))
            if merged:
                windows[str(link_class)] = [
                    [_rounded(s), _rounded(e)] for s, e in merged
                ]
        report["degraded_windows"] = windows
    return report
