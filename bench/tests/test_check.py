"""What counts as a failed operation, and traced/untraced invariance."""

import pytest

from bench import driver, worker
from bench import workloads as w
from repro.api import RunSpec
from repro.cluster import ClusterScenario
from repro.inference import InferenceSpec

TINY = [
    RunSpec("zero2", size_billions=0.35, iterations=2),
    RunSpec("zero3", size_billions=0.35, iterations=2, trace=True,
            leak_check=True),
    RunSpec("ddp", size_billions=11.0, iterations=2),  # OutOfMemoryError
    ClusterScenario(name="tiny", nodes=2, num_jobs=3, mix="small"),
    InferenceSpec(size_billions=0.35, gpus=2, num_requests=4),
]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(w.GENERATORS, "tiny", lambda seed: list(TINY))
    return "tiny"


def one_pass(ops):
    return {"ops": [{"s": 0.1, "label": f"op{index}", "fingerprint": dict(fp),
                     "problems": list(problems)}
                    for index, (fp, problems) in enumerate(ops)]}


def test_matching_passes_do_not_fail():
    passes = [one_pass([({"a": 1.0}, [])]), one_pass([({"a": 1.0}, [])])]
    assert driver.check_passes(passes, None)[:2] == (2, 0)


def test_perturbed_fingerprint_counts_as_failed():
    reference = [{"tflops": 497.123, "outcome_count": 3}]
    perturbed = one_pass([({"tflops": 497.124, "outcome_count": 3}, [])])
    attempted, failed, messages = driver.check_passes([perturbed], reference)
    assert (attempted, failed) == (1, 1)
    assert "tflops" in messages[0]


def test_pass_disagreeing_with_the_first_counts_as_failed():
    passes = [one_pass([({"a": 1.0}, []), ({"b": 2.0}, [])]),
              one_pass([({"a": 1.0}, []), ({"b": 2.5}, [])])]
    assert driver.check_passes(passes, None)[:2] == (4, 1)


def test_reported_problem_counts_as_failed():
    passes = [one_pass([({"a": 1.0}, ["leak check found 8 leaked bytes"])])]
    assert driver.check_passes(passes, None)[:2] == (1, 1)


def test_unexpected_exception_counts_as_failed(tiny, monkeypatch):
    def explode(spec):
        raise RuntimeError("boom")

    monkeypatch.setattr(w, "execute", explode)
    report = worker.run_pass(tiny, 1, profile=False)
    assert all(op["problems"] for op in report["ops"])
    attempted, failed, _ = driver.check_passes([report], None)
    assert attempted == failed == len(TINY)


def test_out_of_memory_is_an_expected_outcome(tiny):
    report = worker.run_pass(tiny, 1, profile=False)
    assert report["ops"][2]["fingerprint"] == {"outcome": "OutOfMemoryError"}
    assert driver.check_passes([report], None)[:2] == (len(TINY), 0)


def test_traced_and_untraced_fingerprints_are_identical(tiny):
    plain = worker.run_pass(tiny, 1, profile=False)
    traced = worker.run_pass(tiny, 1, profile=True)
    assert ([op["fingerprint"] for op in plain["ops"]]
            == [op["fingerprint"] for op in traced["ops"]])
    assert plain["profile"] is None
    layers = traced["profile"]["layers"]
    assert layers["sim.flows"]["calls"] > 0
    assert layers["cluster"]["calls"] > 0 and layers["inference"]["calls"] > 0
    assert traced["profile"]["counters"]["sim.engine.dispatches"] > 0
    assert driver.check_passes([plain, traced], None)[:2] == (2 * len(TINY), 0)


def test_fingerprints_leave_out_implementation_counters():
    headline = {"tflops": 497.1234567, "events_processed": 10,
                "tenants.a.events_folded": 3, "jobs_completed": 4}
    assert w.fingerprint(headline) == {"tflops": 497.123, "jobs_completed": 4}
