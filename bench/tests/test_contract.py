"""BENCHMARK.json and the run agree, and compare judges by its bounds."""

import json

import pytest

from bench import ROOT, WORKLOADS
from bench.compare import verdict
from bench.driver import END_TO_END, per_layer_units

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match_the_run():
    listed = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    assert listed == END_TO_END
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_per_layer_metrics_are_reported_by_the_run():
    units = per_layer_units()
    for entry in SPEC["per_layer"]:
        assert units[entry["name"]] == entry["unit"]


@pytest.mark.parametrize("before, after, expected", [
    ([10.0, 10.1, 10.2, 10.3, 10.1], [10.5, 10.6, 10.4, 10.6, 10.5], "ok"),
    ([10.0, 10.1, 10.2, 10.3, 10.1], [11.5, 11.6, 11.4, 11.6, 11.5], "worse"),
    ([10.0, 14.0, 8.0, 12.0, 10.0], [11.5, 11.6, 11.4, 11.6, 11.5],
     "unresolved"),
    ([10.0, 14.0, 9.0, 12.0, 10.0], [8.0, 8.1, 7.9, 8.2, 8.0], "ok"),
])
def test_verdicts(before, after, expected):
    assert verdict(before, after, 0.10, "lower")[0] == expected


def test_any_increase_in_failures_is_worse():
    assert verdict([0.0] * 5, [0.0, 0.0, 0.0, 0.0, 0.01], 0.0,
                   "lower")[0] == "worse"
    assert verdict([0.0] * 5, [0.0] * 5, 0.0, "lower")[0] == "ok"
