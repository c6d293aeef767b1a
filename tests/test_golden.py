"""Golden-trace regression harness.

Committed JSON snapshots in ``tests/golden/`` pin the headline metrics
of the paper's key experiments (Fig. 5 timeline, Fig. 6 max model size,
Fig. 7 throughput, Fig. 9/10 communication patterns, Fig. 11 offload
throughput).  Any change that moves a
number — an intentional calibration change or an accidental regression —
fails here with a readable field-level diff, also written to
``tests/golden/diffs/<id>.diff`` so CI can upload it as an artifact.

After an *intentional* change, refresh the snapshots with::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden

Floats are rounded by the package's one comparison rule
(:func:`repro.compare.round_sig`, 6 significant figures) on both sides
of the comparison, absorbing harmless last-ulp reorderings while still
catching any drift a reader of the paper's tables would notice.
"""

import json
from pathlib import Path

import pytest

from repro.compare import round_sig
from repro.experiments.registry import run_experiment
from repro.trace.diff import summarize

GOLDEN_DIR = Path(__file__).parent / "golden"
DIFF_DIR = GOLDEN_DIR / "diffs"

#: Experiments whose quick-mode rows are pinned.
EXPERIMENT_IDS = ("fig5", "fig6", "fig7", "fig9", "fig10", "fig11")


def sanitize(value):
    """JSON-stable form: floats rounded, containers recursed, rest as-is."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return round_sig(value)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    return str(value)


def snapshot(experiment_id):
    result = run_experiment(experiment_id, quick=True)
    return {
        "experiment": experiment_id,
        "title": result.title,
        "rows": [sanitize(row) for row in result.rows],
    }


def diff_snapshots(golden, current):
    """Human-readable field-level differences, [] when identical."""
    lines = []
    for key in ("experiment", "title"):
        if golden.get(key) != current.get(key):
            lines.append(
                f"{key}: golden={golden.get(key)!r} "
                f"current={current.get(key)!r}"
            )
    golden_rows = golden.get("rows", [])
    current_rows = current.get("rows", [])
    if len(golden_rows) != len(current_rows):
        lines.append(
            f"row count: golden={len(golden_rows)} "
            f"current={len(current_rows)}"
        )
    for index, (g_row, c_row) in enumerate(zip(golden_rows, current_rows)):
        for key in sorted(set(g_row) | set(c_row)):
            g_val = g_row.get(key, "<missing>")
            c_val = c_row.get(key, "<missing>")
            if g_val != c_val:
                lines.append(
                    f"row {index} [{key}]: golden={g_val!r} "
                    f"current={c_val!r}"
                )
    return lines


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_golden_metrics(experiment_id, request):
    current = snapshot(experiment_id)
    path = GOLDEN_DIR / f"{experiment_id}.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden snapshot {path.name} rewritten")
    if not path.exists():
        pytest.fail(
            f"missing golden snapshot {path}; create it with "
            f"pytest tests/test_golden.py --update-golden"
        )
    golden = json.loads(path.read_text())
    drift = diff_snapshots(golden, current)
    if drift:
        DIFF_DIR.mkdir(exist_ok=True)
        diff_path = DIFF_DIR / f"{experiment_id}.diff"
        diff_path.write_text("\n".join(drift) + "\n")
        pytest.fail(
            f"golden drift in {experiment_id} "
            f"({len(drift)} field(s); full diff at {diff_path}):\n"
            + "\n".join(drift[:20])
        )


def test_fig5_ascii_render_byte_identical(request):
    """The Fig. 5 rendering is pinned byte-for-byte, not just metric-wise.

    The ASCII renderer moved from ``repro.telemetry.timeline`` into
    ``repro.trace.ascii``; this snapshot proves the refactor (and any
    future one) changes nothing in the output.
    """
    rendered = run_experiment("fig5", quick=True).rendered
    path = GOLDEN_DIR / "fig5_render.txt"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(rendered)
        pytest.skip(f"golden render {path.name} rewritten")
    if not path.exists():
        pytest.fail(f"missing golden render {path}; create it with "
                    f"pytest tests/test_golden.py --update-golden")
    assert rendered == path.read_text()


def test_golden_trace_summary(request, traced_ddp):
    """The traced DDP run's summary table is pinned like the experiments."""
    _, metrics = traced_ddp
    current = {key: sanitize(value)
               for key, value in summarize(metrics.trace).items()}
    path = GOLDEN_DIR / "trace_ddp_summary.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden trace summary {path.name} rewritten")
    if not path.exists():
        pytest.fail(f"missing golden trace summary {path}; create it with "
                    f"pytest tests/test_golden.py --update-golden")
    golden = json.loads(path.read_text())
    drift = []
    for key in sorted(set(golden) | set(current)):
        g_val = golden.get(key, "<missing>")
        c_val = current.get(key, "<missing>")
        if g_val != c_val:
            drift.append(f"[{key}]: golden={g_val!r} current={c_val!r}")
    if drift:
        DIFF_DIR.mkdir(exist_ok=True)
        diff_path = DIFF_DIR / "trace_ddp_summary.diff"
        diff_path.write_text("\n".join(drift) + "\n")
        pytest.fail(
            f"golden trace-summary drift ({len(drift)} field(s); full "
            f"diff at {diff_path}):\n" + "\n".join(drift[:20])
        )


class TestHarnessSelfTest:
    """The harness must demonstrably fail when a metric is perturbed."""

    GOLDEN = {
        "experiment": "x", "title": "t",
        "rows": [{"strategy": "ddp", "tflops": 123.456}],
    }

    def test_identical_snapshots_produce_no_diff(self):
        assert diff_snapshots(self.GOLDEN, json.loads(json.dumps(self.GOLDEN))) == []

    def test_perturbed_metric_is_detected(self):
        tweaked = json.loads(json.dumps(self.GOLDEN))
        tweaked["rows"][0]["tflops"] = 123.457
        drift = diff_snapshots(self.GOLDEN, tweaked)
        assert drift and "tflops" in drift[0]

    def test_missing_and_extra_rows_are_detected(self):
        assert diff_snapshots(self.GOLDEN, {**self.GOLDEN, "rows": []})
        extra = json.loads(json.dumps(self.GOLDEN))
        extra["rows"].append({"strategy": "zero3", "tflops": 1.0})
        assert diff_snapshots(self.GOLDEN, extra)

    def test_committed_snapshot_perturbation_fails(self):
        """End to end: a committed snapshot with one nudged metric drifts."""
        path = GOLDEN_DIR / "fig6.json"
        if not path.exists():
            pytest.skip("fig6 golden snapshot not created yet")
        golden = json.loads(path.read_text())
        tweaked = json.loads(path.read_text())
        row = tweaked["rows"][0]
        for key, value in row.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row[key] = value + 1
                break
        else:
            pytest.skip("fig6 snapshot has no numeric field in row 0")
        assert diff_snapshots(golden, tweaked)

    def test_sub_sigfig_jitter_is_absorbed(self):
        wiggled = json.loads(json.dumps(self.GOLDEN))
        wiggled["rows"][0]["tflops"] = sanitize(123.456 * (1 + 1e-12))
        assert diff_snapshots(self.GOLDEN, wiggled) == []
