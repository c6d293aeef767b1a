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
from repro.sim.flows import FlowNetwork


def test_dual_node_zero3_counts(monkeypatch):
    built = []
    construct = BaseEvent.__init__

    def counting(self, engine):
        built.append(None)
        construct(self, engine)

    # the allocator's units: flows and flow groups activated (and the
    # transfers they stand for), groups replaced by their parts, parts
    activated, transfers, replaced, parts = [], [], [], []
    add, replace, part = (FlowNetwork._add, FlowNetwork._replace,
                          FlowNetwork._part)

    def counting_add(self, flow, touched):
        activated.append(None)
        transfers.append(flow.size)
        add(self, flow, touched)

    def counting_replace(self, flow, pieces):
        replaced.append(None)
        replace(self, flow, pieces)

    def counting_part(self, group, positions):
        parts.append(None)
        return part(self, group, positions)

    monkeypatch.setattr(BaseEvent, "__init__", counting)
    monkeypatch.setattr(FlowNetwork, "_add", counting_add)
    monkeypatch.setattr(FlowNetwork, "_replace", counting_replace)
    monkeypatch.setattr(FlowNetwork, "_part", counting_part)
    spec = RunSpec("zero3", 0.7, nodes=2, iterations=4)
    cluster = build_cluster(spec)
    execution = run_spec(spec, cluster=cluster).execution
    assert execution.events_processed == 6_997
    assert execution.events_folded == 4_436
    assert len(cluster.topology.log) == 926
    assert len(built) == 2_029
    assert sum(transfers) == 4_736
    assert len(activated) == 444
    # every launch's 24 NVLink members split 16 + 8 at their first fill
    assert len(replaced) == 148 and len(parts) == 296
    assert len(activated) - len(replaced) + len(parts) == 592


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
