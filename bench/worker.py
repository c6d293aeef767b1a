"""One benchmark pass in a fresh process: set up, run, check, report.

The driver starts ``python -m bench.worker WORKLOAD SEED PROFILE
SPAWNED`` with ``src`` first on ``PYTHONPATH``; ``SPAWNED`` is the
driver's ``time.monotonic()`` just before the spawn (a system-wide clock
on Linux), so ``setup_s`` covers interpreter start, ``import repro`` and
input generation, up to the moment the first call could start.  Caches start cold, as they do
for every ``repro`` CLI call and campaign worker.

Only the calls into the simulator are timed (and, with ``PROFILE=1``,
profiled).  Checks, fingerprints and the host calibration loop stay
outside that region.  The loop runs before the first call and then
whenever :data:`CALIBRATE_EVERY_S` have passed, so every operation is
bracketed by two calibrations taken within about a second of it.  The
pass prints one JSON object on stdout.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import json
import pstats
import resource
import sys
import time
import traceback
from typing import Dict, List, Optional

CALIBRATE_EVERY_S = 1.0


class _Flow:
    __slots__ = ("rate", "link", "left")

    def __init__(self, rate: float, link: int) -> None:
        self.rate = rate
        self.link = link
        self.left = 1e6


def host_calibration() -> float:
    """Seconds for a fixed pure-Python loop shaped like simulator work.

    Integer arithmetic, attribute updates on small slotted objects, and a
    heap of timestamped events, each about a third of the time, with the
    garbage collector off.  No simulator code runs in it, so no change to
    the simulator can move it; only the host's speed can.  On a shared VM
    this mix tracked the simulator's drift closer than any one part.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0
        for value in range(300_000):
            total += value * value % 7
        flows = [_Flow(1.0 + index % 7, index % 15) for index in range(500)]
        capacity = [10.0 + link for link in range(15)]
        for _ in range(1100):
            for flow in flows:
                flow.left -= flow.rate * capacity[flow.link]
        queue = [(float(index % 97), index) for index in range(1000)]
        heapq.heapify(queue)
        for _ in range(30_000):
            when, index = heapq.heappop(queue)
            heapq.heappush(queue, (when + 0.25 + index % 13 * 0.5, index))
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def run_pass(workload: str, seed: int, profile: bool,
             spawned: Optional[float] = None) -> Dict[str, object]:
    """Generate the workload's inputs, run every operation, check each.

    Each entry of ``ops`` holds the operation's seconds, the mean of the
    two calibrations around it, its fingerprint and the invariant
    violations found in it.  An ``OutOfMemoryError``
    is an expected outcome; any other exception is a problem.
    """
    from repro.errors import OutOfMemoryError

    from . import SRC, workloads
    from .layers import attribute

    specs = workloads.generate(workload, seed)
    setup_s = time.monotonic() - spawned if spawned is not None else None
    calibration = [host_calibration()]
    calibrated = time.perf_counter()
    profiler = cProfile.Profile() if profile else None
    ops: List[Dict[str, object]] = []
    uncalibrated: List[Dict[str, object]] = []
    events = folded = 0
    for number, spec in enumerate(specs, 1):
        cluster = result = None
        problems: List[str] = []
        started = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            cluster, result = workloads.execute(spec)
        except OutOfMemoryError:
            fingerprint: Dict[str, object] = {"outcome": "OutOfMemoryError"}
        except Exception as error:  # noqa: BLE001 - counted as failed
            fingerprint = {"outcome": type(error).__name__}
            problems.append(traceback.format_exc(limit=-3).strip())
        finally:
            if profiler is not None:
                profiler.disable()
            seconds = time.perf_counter() - started
        if result is not None:
            fingerprint, problems, op_events, op_folded = workloads.check(
                spec, cluster, result)
            events += op_events
            folded += op_folded
        op: Dict[str, object] = {"s": seconds, "label": spec.label,
                                 "fingerprint": fingerprint,
                                 "problems": problems}
        ops.append(op)
        uncalibrated.append(op)
        del cluster, result
        if (number == len(specs)
                or time.perf_counter() - calibrated >= CALIBRATE_EVERY_S):
            calibration.append(host_calibration())
            calibrated = time.perf_counter()
            for op in uncalibrated:
                op["calib_s"] = (calibration[-2] + calibration[-1]) / 2
            uncalibrated = []
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "host_calib_s": calibration,
        "ops": ops,
        "events": events,
        "folded": folded,
        "profile": (attribute(pstats.Stats(profiler).stats, SRC)
                    if profiler is not None else None),
    }


def main(argv: List[str]) -> int:
    workload, seed, profile, spawned = argv
    report = run_pass(workload, int(seed), profile == "1", float(spawned))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
