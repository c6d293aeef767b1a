"""The cluster service end to end: scheduling, preemption, ledgers."""

import pytest

from repro.cluster import ClusterScenario, run_cluster
from repro.core.results import SCHEMA_VERSION
from repro.core.runner import run_training
from repro.core.search import model_for_billions
from repro.errors import ConfigurationError
from repro.experiments.common import ALL_STRATEGIES, make_strategy
from repro.hardware import Cluster, ClusterSpec
from repro.inference import InferenceSpec, run_inference
from repro.model.config import TrainingConfig


def _trace_scenario(*jobs, **kwargs):
    return ClusterScenario(arrivals="trace", trace_jobs=tuple(jobs),
                           **kwargs)


class TestSmoke:
    @pytest.mark.parametrize("policy", ["fifo", "sjf", "memory-aware"])
    def test_policy_completes_all_jobs_leak_clean(self, policy):
        scenario = ClusterScenario(policy=policy, num_jobs=6,
                                   rate_per_hour=6000.0, leak_check=True)
        report = run_cluster(scenario).report
        assert report.jobs_submitted == 6
        assert report.jobs_completed == 6
        assert report.jobs_failed == 0
        assert report.leaks is not None and report.leaks.clean
        assert report.leaks.leaked_bytes == 0
        assert report.goodput_jobs_per_hour > 0

    def test_report_payload_schema(self):
        payload = run_cluster(ClusterScenario(num_jobs=3)).report.to_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["kind"] == "cluster"
        for key in ("goodput_jobs_per_hour", "queue_wait_p50_s",
                    "queue_wait_p99_s", "preemptions", "tenants",
                    "max_in_system_jobs", "cluster_utilization"):
            assert key in payload
        for account in payload["tenants"].values():
            assert "utilization" in account

    def test_jobs_overlap_on_the_shared_engine(self):
        # Two 2-GPU jobs on one 4-GPU node arriving together must run
        # concurrently, not serially.
        solo = _trace_scenario({"time": 0.0, "gpus": 2, "strategy": "ddp",
                                "size_billions": 0.35}, nodes=1)
        pair = _trace_scenario(
            {"time": 0.0, "gpus": 2, "strategy": "ddp",
             "size_billions": 0.35},
            {"time": 0.0, "name": "b", "gpus": 2, "strategy": "ddp",
             "size_billions": 0.35},
            nodes=1,
        )
        solo_time = run_cluster(solo).report.total_time_s
        pair_report = run_cluster(pair).report
        assert pair_report.max_concurrent_jobs == 2
        # far cheaper than running twice serially (allow contention slack)
        assert pair_report.total_time_s < 1.8 * solo_time

    def test_queueing_when_fabric_is_full(self):
        # Three whole-node jobs on one node: strictly serial, waits grow.
        jobs = [{"time": 0.0, "name": f"j{i}", "gpus": 4,
                 "strategy": "ddp", "size_billions": 0.35}
                for i in range(3)]
        report = run_cluster(_trace_scenario(*jobs, nodes=1)).report
        assert report.max_concurrent_jobs == 1
        assert report.queue_wait_p99_s > 0


class TestOneJobIsASingleRun:
    """One job on an idle fabric runs exactly as the single-run entry
    points run it: the same total time to the last bit, and two more
    events (the job's arrival and the scheduler daemon)."""

    # every strategy the shared service accepts (it rejects NVMe offload)
    @pytest.mark.parametrize("strategy", sorted(
        name for name in ALL_STRATEGIES if "nvme" not in name))
    @pytest.mark.parametrize("nodes", [1, 2])
    def test_training_job(self, strategy, nodes):
        report = run_cluster(_trace_scenario(
            {"time": 0.0, "strategy": strategy, "size_billions": 0.7,
             "gpus": 4 * nodes, "iterations": 4,
             "micro_batch_per_gpu": 16},
            nodes=nodes)).report
        single = run_training(
            Cluster(ClusterSpec(num_nodes=nodes)), make_strategy(strategy),
            model_for_billions(0.7),
            training=TrainingConfig(micro_batch_per_gpu=16), iterations=4,
        ).execution
        assert report.total_time_s.hex() == single.total_time.hex()
        assert report.events_processed == single.events_processed + 2

    @pytest.mark.parametrize("gpus", [2, 4])
    def test_serving_job(self, gpus):
        spec = InferenceSpec(
            size_billions=0.7, gpus=gpus, num_requests=64,
            rate_per_second=2.0, arrival_seed=7, request_mix="chat",
            max_batch_tokens=4096, max_batch_requests=8)
        report = run_cluster(_trace_scenario(
            {"time": 0.0, "workload": "inference", "size_billions": 0.7,
             "gpus": gpus, "iterations": 64, "request_rate_per_s": 2.0,
             "request_seed": 7, "request_mix": "chat",
             "max_batch_tokens": 4096, "max_batch_requests": 8},
            nodes=1)).report
        single = run_inference(spec).report
        # The cluster re-times the request stream to the job's start, so
        # its makespan is shorter by the first request's arrival time.
        first_arrival = spec.expand_requests()[0].time
        assert ((report.total_time_s + first_arrival).hex()
                == single.total_time_s.hex())
        assert report.events_processed == single.events_processed + 2


class TestValidation:
    def test_impossible_shape_rejected_up_front(self):
        scenario = _trace_scenario({"time": 0.0, "gpus": 5}, nodes=2)
        with pytest.raises(ConfigurationError, match="whole nodes"):
            run_cluster(scenario)

    def test_job_larger_than_fabric_rejected(self):
        scenario = _trace_scenario({"time": 0.0, "gpus": 16}, nodes=2)
        with pytest.raises(ConfigurationError, match="nodes"):
            run_cluster(scenario)

    def test_job_that_can_never_fit_memory_rejected(self):
        scenario = _trace_scenario(
            {"time": 0.0, "gpus": 2, "strategy": "ddp",
             "size_billions": 8.0})
        with pytest.raises(ConfigurationError, match="never fit"):
            run_cluster(scenario)


class TestPreemption:
    def _run(self, **kwargs):
        scenario = _trace_scenario(
            {"time": 0.0, "name": "longlow", "strategy": "zero2",
             "size_billions": 0.7, "gpus": 16, "iterations": 40,
             "priority": 0},
            {"time": 0.5, "name": "hipri", "strategy": "ddp",
             "size_billions": 0.35, "gpus": 4, "iterations": 3,
             "priority": 5},
            leak_check=True, **kwargs,
        )
        return run_cluster(scenario).report

    def test_high_priority_arrival_preempts(self):
        report = self._run()
        assert report.preemptions == 1
        assert report.jobs_completed == 2
        assert report.leaks is not None and report.leaks.clean

    def test_checkpoint_cost_charged_to_preempted_tenant(self):
        report = self._run()
        # longlow is the "default" tenant; it pays save + restore
        account = report.tenants["default"]
        assert account["preemptions"] == 1
        assert account["checkpoint_overhead_s"] > 0
        assert report.checkpoint_overhead_s == pytest.approx(
            account["checkpoint_overhead_s"])

    def test_preempted_job_resumes_and_finishes(self):
        report = self._run()
        assert report.jobs_failed == 0
        # the preempted job restarted: max concurrency stayed 1 (16-GPU
        # job owns the fabric alone) yet both completed
        assert report.jobs_completed == 2

    def test_aging_never_grants_preemption_rights(self):
        # Low-pri waiter ages above the running job's effective priority
        # but must NOT evict it: preemption keys on base priority.
        scenario = _trace_scenario(
            {"time": 0.0, "name": "running", "strategy": "zero2",
             "size_billions": 0.7, "gpus": 16, "iterations": 24,
             "priority": 1},
            {"time": 0.1, "name": "aged", "strategy": "ddp",
             "size_billions": 0.35, "gpus": 4, "iterations": 3,
             "priority": 0},
            aging_rate=1000.0,
        )
        report = run_cluster(scenario).report
        assert report.preemptions == 0
        assert report.jobs_completed == 2


class TestHeavyTraffic:
    def test_heavy_traffic_acceptance(self):
        # >= 20 jobs concurrently in the system on a 4-node fabric,
        # every ledger byte-conserving at the end.
        scenario = ClusterScenario(
            name="heavy-traffic", policy="memory-aware", mix="heavy",
            rate_per_hour=60000.0, num_jobs=28, arrival_seed=7,
            aging_rate=0.01, leak_check=True,
        )
        report = run_cluster(scenario).report
        assert report.max_in_system_jobs >= 20
        assert report.nodes == 4
        assert report.jobs_completed == 28
        assert report.leaks is not None
        assert report.leaks.clean
        assert report.leaks.leaked_bytes == 0
        assert report.preemptions > 0  # priorities actually bit


class TestFidelity:
    def _one_job(self, fidelity):
        scenario = _trace_scenario(
            {"time": 0.0, "strategy": "ddp", "size_billions": 0.35,
             "gpus": 2, "iterations": 50, "fidelity": fidelity},
            leak_check=True,
        )
        return run_cluster(scenario).report

    def test_hybrid_job_cuts_events_and_stays_leak_clean(self):
        full = self._one_job("full")
        hybrid = self._one_job("hybrid")
        assert hybrid.jobs_completed == 1
        assert hybrid.leaks is not None and hybrid.leaks.clean
        assert hybrid.events_processed < full.events_processed / 4

    def test_hybrid_preserves_makespan_roughly(self):
        full = self._one_job("full")
        hybrid = self._one_job("hybrid")
        assert hybrid.total_time_s == pytest.approx(
            full.total_time_s, rel=0.05)


class TestClusterTrace:
    def test_trace_assembles_job_tagged_activity(self):
        scenario = _trace_scenario(
            {"time": 0.0, "name": "a", "strategy": "ddp",
             "size_billions": 0.35, "gpus": 2},
            {"time": 0.0, "name": "b", "strategy": "ddp",
             "size_billions": 0.35, "gpus": 2},
            trace=True,
        )
        run = run_cluster(scenario)
        trace = run.trace
        assert trace is not None
        assert trace.meta["jobs"] == 2
        # spans and collectives carry the owning job's id
        span_jobs = {span.name.split(":", 1)[0] for span in trace.spans}
        assert span_jobs == {"job0", "job1"}
        coll_jobs = {c.comm.split(":", 1)[0] for c in trace.collectives}
        assert coll_jobs == {"job0", "job1"}
        # flows carry the flow_tag prefix
        flow_jobs = {f.label.split("/", 1)[0] for f in trace.flows}
        assert flow_jobs == {"job0", "job1"}
        assert trace.links  # shared ledgers produced link accounts

    def test_span_ranks_are_global(self):
        # job1 lands on node 0 GPUs 2-3 (best-fit after job0 takes 0-1),
        # so its spans must sit on global ranks 2 and 3.
        scenario = _trace_scenario(
            {"time": 0.0, "name": "a", "strategy": "ddp",
             "size_billions": 0.35, "gpus": 2},
            {"time": 0.0, "name": "b", "strategy": "ddp",
             "size_billions": 0.35, "gpus": 2},
            trace=True, nodes=1,
        )
        trace = run_cluster(scenario).trace
        ranks_b = {span.rank for span in trace.spans
                   if span.name.startswith("job1:")}
        assert ranks_b == {2, 3}
