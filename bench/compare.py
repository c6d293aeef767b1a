"""``python -m bench compare A/ B/``: did B get worse than A?

Each directory holds untraced ``run`` results (one JSON file per run;
traced runs are skipped, their timings include profiled passes).  For
every workload and metric this prints each side's median and quartiles
over its runs and a verdict, using the bounds in ``BENCHMARK.json``:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — A's own runs spread (quartile distance over median)
  wider than the bound, so no change within it can be seen, unless
  every run of B is better than every run of A;
* ``ok`` — otherwise.

``failed_frac`` has no bound to spare: it is ``worse`` when B's worst
run failed more than A's worst.  Metrics without a bound are shown,
never judged.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import ROOT
from .driver import quartiles

#: Bounds for metrics the run reports but ``BENCHMARK.json`` does not
#: list: ``failed_frac`` is 0 on a correct run, and the ``spec_*``
#: latencies exist only on ``sweep_1node``.  The raw timings and
#: ``host_calib_s`` are shown, never judged.
EXTRA_BOUNDS: Dict[str, Tuple[float, str]] = {
    "failed_frac": (0.0, "lower"),
    "spec_p50_ms": (0.15, "lower"),
    "spec_p80_ms": (0.15, "lower"),
}


def bounds() -> Dict[str, Tuple[float, str]]:
    """``metric -> (bound, better)`` from ``BENCHMARK.json`` and extras."""
    table = dict(EXTRA_BOUNDS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["end_to_end"]:
        table[entry["name"]] = (entry["bound"], entry["better"])
    return table


def load(directory: Path) -> Dict[str, Dict[str, List[float]]]:
    """``workload -> metric -> values``, one value per untraced run."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        if data.get("trace"):
            continue
        for workload, result in data["workloads"].items():
            for name, entry in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    entry["value"])
    return values


def verdict(before: List[float], after: List[float], bound: float,
            better: str) -> Tuple[str, float]:
    """``(verdict, relative change)``; a positive change is a worsening."""
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0.0:
        change = sign * (max(after) - max(before))
        return ("worse" if change > 0 else "ok"), change
    q1, median, q3 = quartiles(before)
    change = sign * (quartiles(after)[1] - median) / median
    if (q3 - q1) / median > bound:
        improved = (max(after) < min(before) if better == "lower"
                    else min(after) > max(before))
        return ("ok" if improved else "unresolved"), change
    return ("worse" if change > bound else "ok"), change


def side(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:10.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(before_dir: Path, after_dir: Path) -> int:
    """Print the comparison; exit status 1 when anything got worse."""
    before, after = load(before_dir), load(after_dir)
    table = bounds()
    any_worse = False
    for workload in sorted(before.keys() | after.keys()):
        rows: List[str] = []
        verdicts: List[str] = []
        metrics = sorted(before.get(workload, {}).keys()
                         | after.get(workload, {}).keys())
        for name in metrics:
            a = before.get(workload, {}).get(name)
            b = after.get(workload, {}).get(name)
            judged: Optional[str] = None
            change = ""
            if a and b and name in table:
                judged, delta = verdict(a, b, *table[name])
                change = f"{delta:+.1%}" if table[name][0] else f"{delta:+.3g}"
                verdicts.append(judged)
            rows.append(f"  {name:14s} A {side(a) if a else '-':36s} "
                        f"B {side(b) if b else '-':36s} {change:>8s} "
                        f"{judged or ''}")
        overall = ("worse" if "worse" in verdicts else
                   "unresolved" if "unresolved" in verdicts else "ok")
        any_worse = any_worse or overall == "worse"
        print(f"{workload}: {overall}")
        print("\n".join(rows))
    return 1 if any_worse else 0
