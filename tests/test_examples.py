"""The example scripts stay runnable (smoke tests)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )


def test_examples_directory_complete():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert "quickstart.py" in names
    assert len(names) >= 3  # quickstart + domain scenarios


def test_quickstart_runs():
    result = run_example("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "TFLOP/s" in result.stdout
    assert "NVLink" in result.stdout


def test_compare_strategies_single_node():
    result = run_example("compare_strategies.py", "--nodes", "1",
                         "--iterations", "2", timeout=400)
    assert result.returncode == 0, result.stderr
    assert "ZeRO-2" in result.stdout


def test_reproduce_paper_single_artifact():
    result = run_example("reproduce_paper.py", "--only", "table1")
    assert result.returncode == 0, result.stderr
    assert "ZeRO stage" in result.stdout


@pytest.mark.parametrize("name", [
    "consolidate_to_one_node.py",
    "nvme_placement_tuning.py",
    "reproduce_paper.py",
    "compare_strategies.py",
])
def test_help_texts(name):
    if name == "consolidate_to_one_node.py":
        pytest.skip("no CLI flags; exercised by the consolidation bench")
    result = run_example(name, "--help", timeout=60)
    assert result.returncode == 0
