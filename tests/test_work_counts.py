"""Exact work counts of three fixed runs.

Host noise moves wall-clock time but not these integers: the engine's
callbacks and folds, the rows of the fabric's interval log, the event
objects a run builds and the work a run completes.  A change that moves
one on purpose updates the pin here and names it in CHANGES.md; any
other move is a change in what the simulator does.
"""

from __future__ import annotations

from repro.api import RunSpec, run_spec
from repro.api.build import build_cluster
from repro.cluster import ClusterScenario, run_cluster
from repro.inference import InferenceSpec, run_inference
from repro.sim.engine import BaseEvent


def test_dual_node_zero3_counts(monkeypatch):
    built = []
    construct = BaseEvent.__init__

    def counting(self, engine):
        built.append(None)
        construct(self, engine)

    monkeypatch.setattr(BaseEvent, "__init__", counting)
    spec = RunSpec("zero3", 0.7, nodes=2, iterations=4)
    cluster = build_cluster(spec)
    execution = run_spec(spec, cluster=cluster).execution
    assert execution.events_processed == 6_997
    assert execution.events_folded == 4_436
    assert len(cluster.topology.log) == 6_094
    assert len(built) == 2_029


def test_fifo_cluster_counts():
    report = run_cluster(ClusterScenario(
        nodes=4, policy="fifo", rate_per_hour=12000, num_jobs=10,
        arrival_seed=7)).report
    assert report.events_processed == 14_619
    assert report.events_folded == 7_826
    assert report.jobs_completed == 10


def test_continuous_batching_counts():
    report = run_inference(InferenceSpec(
        size_billions=0.7, gpus=2, num_requests=32,
        batching="continuous")).report
    assert report.events_processed == 11_369
    assert report.events_folded == 0
    assert report.requests_completed == 32
