"""``python -m bench run``: passes in fresh workers, checked, summarized.

A *pass* is one worker process running every operation of a workload
once.  Passes run one at a time in a closed loop: the next starts when
the previous one has returned, until another would end past
``--seconds`` (there is always at least one).  Each metric is the median
over passes; ``wall_s`` sums each operation's median seconds, so a slow
moment of the host spoils one sample of one operation, not the whole
figure.  Timings are then scaled to a reference host speed (see
:data:`CALIBRATION_REF_S`).

With ``--trace 1`` the loop alternates an untraced and a profiled pass,
and the result holds the per-layer breakdown, the named counters and
``trace_overhead`` (profiled over untraced ``wall_s``).

Every operation is checked: its invariants in the worker, and its
fingerprint against ``bench/reference/`` for the reference seeds, or
against the run's first pass for any other seed.  A mismatch, a
violated invariant or an unexpected exception counts as failed.
"""

from __future__ import annotations

import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import ROOT, SRC
from .layers import LAYER_NAMES, NAMED_CALLS

#: Seeds whose fingerprints are pinned under ``bench/reference/``.
REFERENCE_SEEDS = (1, 2)
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Every workload of a run, workers included, ends within this many
#: seconds.
HARD_LIMIT_S = 170.0

#: Timings are *calibrated seconds*: each operation's raw seconds scaled
#: by ``CALIBRATION_REF_S`` over the time of the worker's calibration loop
#: around it (set-up by the first loop), i.e. seconds on a host where that
#: loop takes 100 ms.  A shared 2-vCPU cloud VM drifted in speed by up to
#: a third over minutes; the loop drifts with it.
CALIBRATION_REF_S = 0.1

#: End-to-end metrics, reported on every workload (``--trace 0``).
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Named counters taken from result fields rather than the profile.
RESULT_COUNTERS = ("sim.engine.events", "sim.engine.folded")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric (``--trace 1``) with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
        if layer != "other":
            units[f"{layer}.calls"] = "count"
    for counter in (*NAMED_CALLS, *RESULT_COUNTERS):
        units[counter] = "count"
    units["trace_overhead"] = "ratio"
    return units


def worker_env() -> Dict[str, str]:
    """The worker environment: repository sources first, one thread,
    and a fixed hash seed so call counts repeat exactly."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(workload: str, seed: int, profile: bool,
          timeout: float) -> Tuple[Optional[dict], str]:
    """Run one pass; returns ``(report, error)``, exactly one set."""
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "bench.worker", workload, str(seed),
             "1" if profile else "0", repr(spawned)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return None, f"worker exceeded {timeout:.0f} s"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        return None, (f"worker exited {done.returncode}: "
                      + " | ".join(tail))
    return json.loads(lines[-1]), ""


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def load_reference(workload: str, seed: int) -> Optional[List[dict]]:
    path = reference_path(workload, seed)
    if seed not in REFERENCE_SEEDS or not path.exists():
        return None
    return json.loads(path.read_text())["ops"]


def write_reference(workload: str, seed: int, ops: List[dict]) -> Path:
    """One operation per line, so a changed operation reads as one diff."""
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = ",\n".join(json.dumps(op["fingerprint"], sort_keys=True)
                      for op in ops)
    path.write_text(f'{{"workload": "{workload}", "seed": {seed}, '
                    f'"ops": [\n{body}\n]}}\n')
    return path


def mismatch(expected: dict, actual: dict) -> str:
    """A short description of how two fingerprints differ ('' if equal)."""
    if expected == actual:
        return ""
    fields = sorted(key for key in expected.keys() | actual.keys()
                    if expected.get(key) != actual.get(key))
    shown = ", ".join(f"{key}: {expected.get(key)!r} -> {actual.get(key)!r}"
                      for key in fields[:3])
    return f"{len(fields)} field(s) differ from the expected output ({shown})"


def check_passes(passes: List[dict], expected: Optional[List[dict]]
                 ) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, messages)`` over every operation of every
    pass.  Without a reference the first pass is the expectation."""
    if expected is None and passes:
        expected = [op["fingerprint"] for op in passes[0]["ops"]]
    attempted = failed = 0
    messages: List[str] = []
    for number, report in enumerate(passes):
        ops = report["ops"]
        if expected is not None and len(ops) != len(expected):
            messages.append(f"pass {number}: {len(ops)} operations, "
                            f"expected {len(expected)}")
        for index, op in enumerate(ops):
            attempted += 1
            problems = list(op["problems"])
            if expected is not None:
                differs = (mismatch(expected[index], op["fingerprint"])
                           if index < len(expected)
                           else "no expected output")
                if differs:
                    problems.append(differs)
            if problems:
                failed += 1
                messages.extend(f"pass {number} op {index} ({op['label']}): "
                                f"{problem}" for problem in problems)
    return attempted, failed, messages


def op_columns(passes: List[dict], calibrated: bool = True
               ) -> List[Tuple[float, ...]]:
    """Per operation, its seconds in each pass, calibrated by default."""
    return list(zip(*(
        [op["s"] * (CALIBRATION_REF_S / op["calib_s"] if calibrated else 1.0)
         for op in report["ops"]]
        for report in passes)))


def wall_s(passes: List[dict], calibrated: bool = True) -> float:
    """Sum over operations of each operation's median seconds."""
    return sum(statistics.median(column)
               for column in op_columns(passes, calibrated))


def metric(value: float, unit: str, samples: Sequence[float] = ()) -> dict:
    entry = {"value": value, "unit": unit}
    if len(samples) > 1:
        q1, _, q3 = quartiles(samples)
        entry.update(q1=q1, q3=q3, n=len(samples))
    return entry


def summarize(plain: List[dict], attempted: int, failed: int
              ) -> Dict[str, dict]:
    """The untraced metrics of one workload's passes."""
    if not plain:
        return {}
    columns = op_columns(plain)
    walls = [sum(column[number] for column in columns)
             for number in range(len(plain))]
    raw_walls = [sum(op["s"] for op in report["ops"]) for report in plain]
    raw_setups = [report["setup_s"] for report in plain]
    setups = [report["setup_s"] * CALIBRATION_REF_S / report["host_calib_s"][0]
              for report in plain]
    rss = [report["peak_rss_mb"] for report in plain]
    calibration = [seconds for report in plain
                   for seconds in report["host_calib_s"]]
    metrics = {
        "wall_s": metric(wall_s(plain), "s", walls),
        "setup_s": metric(statistics.median(setups), "s", setups),
        "peak_rss_mb": metric(statistics.median(rss), "MB", rss),
        "failed_frac": metric(failed / attempted if attempted else 1.0, "1"),
    }
    if len(columns) >= 10:
        op_ms = [statistics.median(column) * 1e3 for column in columns]
        metrics["spec_p50_ms"] = metric(statistics.median(op_ms), "ms")
        metrics["spec_p80_ms"] = metric(
            statistics.quantiles(op_ms, n=100)[79], "ms")
    metrics["wall_raw_s"] = metric(wall_s(plain, calibrated=False), "s",
                                   raw_walls)
    metrics["setup_raw_s"] = metric(statistics.median(raw_setups), "s",
                                    raw_setups)
    metrics["host_calib_s"] = metric(statistics.median(calibration), "s",
                                     calibration)
    return metrics


def summarize_trace(plain: List[dict], traced: List[dict]
                    ) -> Tuple[Dict[str, dict], List[str]]:
    """The per-layer metrics of one workload's profiled passes."""
    units = per_layer_units()
    notes: List[str] = []
    profiles = [report["profile"] for report in traced]
    self_s = {layer: statistics.median(p["layers"][layer]["self_s"]
                                       for p in profiles)
              for layer in LAYER_NAMES}
    total = sum(self_s.values())
    values: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.share"] = self_s[layer] / total if total else 0.0
        if layer != "other":
            counts = {p["layers"][layer]["calls"] for p in profiles}
            if len(counts) > 1:
                notes.append(f"{layer}.calls differ across passes: "
                             f"{sorted(counts)}")
            values[f"{layer}.calls"] = profiles[0]["layers"][layer]["calls"]
    for counter in NAMED_CALLS:
        values[counter] = profiles[0]["counters"][counter]
    values["sim.engine.events"] = traced[0]["events"]
    values["sim.engine.folded"] = traced[0]["folded"]
    values["trace_overhead"] = wall_s(traced) / wall_s(plain)
    return {name: metric(values[name], units[name]) for name in units}, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 update_reference: bool) -> dict:
    """Loop passes until ``seconds`` are used, then check and summarize."""
    plain: List[dict] = []
    traced: List[dict] = []
    errors: List[str] = []
    began = time.monotonic()
    cycles: List[float] = []
    while not errors:
        cycle_start = time.monotonic()
        for profile in ((False, True) if trace else (False,)):
            timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - began))
            report, error = spawn(workload, seed, profile, timeout)
            if report is None:
                errors.append(error)
                break
            (traced if profile else plain).append(report)
        cycles.append(time.monotonic() - cycle_start)
        if time.monotonic() + statistics.median(cycles) > began + seconds:
            break
    reference = None if update_reference else load_reference(workload, seed)
    attempted, failed, messages = check_passes(plain + traced, reference)
    attempted += len(errors)
    failed += len(errors)
    messages = errors + messages
    if update_reference and not failed:
        write_reference(workload, seed, plain[0]["ops"])
    result = {"passes": len(plain), "traced_passes": len(traced),
              "attempted": attempted, "failed": failed,
              "failures": messages[:20],
              "metrics": summarize(plain, attempted, failed),
              "samples": [{"setup_s": report["setup_s"],
                           "peak_rss_mb": report["peak_rss_mb"],
                           "host_calib_s": report["host_calib_s"],
                           "op_s": [op["s"] for op in report["ops"]],
                           "op_calib_s": [op["calib_s"]
                                          for op in report["ops"]]}
                          for report in plain]}
    if trace and plain and traced:
        result["per_layer"], result["notes"] = summarize_trace(plain, traced)
    return result


def contract_metrics(result: dict, trace: bool,
                     per_layer: Sequence[str]) -> Dict[str, dict]:
    """The metrics the final line reports: every end-to-end metric, or
    with ``--trace 1`` the listed per-layer ones."""
    source = result.get("per_layer", {}) if trace else result["metrics"]
    names = per_layer if trace else END_TO_END
    return {name: {"value": source[name]["value"],
                   "unit": source[name]["unit"]}
            for name in names if name in source}


def print_result(workload: str, result: dict) -> None:
    print(f"{workload}: {result['passes']} passes"
          + (f" + {result['traced_passes']} profiled"
             if result["traced_passes"] else "")
          + f", {result['attempted']} operations attempted, "
            f"{result['failed']} failed")
    for message in result["failures"]:
        print(f"  FAILED {message}")
    for section in ("metrics", "per_layer"):
        for name, entry in result.get(section, {}).items():
            spread = (f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, "
                      f"n={entry['n']}]" if "n" in entry else "")
            print(f"  {name:40s} {entry['value']:>14.6g} {entry['unit']}"
                  f"{spread}")
    for note in result.get("notes", []):
        print(f"  note: {note}")


def contract_per_layer() -> List[str]:
    """The per-layer metric names ``BENCHMARK.json`` lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in spec["per_layer"]]


def run(workloads: Sequence[str], seed: int, seconds: float, trace: bool,
        out: Path, update_reference: bool) -> int:
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"bench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    if update_reference and seed not in REFERENCE_SEEDS:
        print(f"bench: references are kept for seeds {REFERENCE_SEEDS} only",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    per_layer = contract_per_layer()
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, seed, seconds, trace,
                                         update_reference)
        print_result(workload, results[workload])
    out.mkdir(parents=True, exist_ok=True)
    label = workloads[0] if len(workloads) == 1 else "all"
    path = out / f"{label}-seed{seed}{'-trace' if trace else ''}.json"
    path.write_text(json.dumps({
        "seed": seed, "trace": trace, "seconds": seconds,
        "python": platform.python_version(), "workloads": results,
    }, indent=1) + "\n")
    print(f"written: {path}")
    metrics: Dict[str, dict] = {}
    for workload, result in results.items():
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, entry in contract_metrics(result, trace, per_layer).items():
            metrics[prefix + name] = entry
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
