"""Job specs, the lifecycle state machine, the store, and arrivals."""

import pytest

from repro.cluster import (
    JOB_MIXES,
    JobSpec,
    JobState,
    JobStore,
    poisson_arrivals,
    trace_arrivals,
)
from repro.cluster.scenario import ClusterScenario
from repro.errors import ConfigurationError


class TestJobSpec:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            JobSpec.from_dict({"name": "j", "gpu": 4})

    def test_nvme_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="NVMe"):
            JobSpec(name="j", strategy="zero3_opt_nvme")

    def test_warmup_must_leave_measurable_iterations(self):
        with pytest.raises(ConfigurationError):
            JobSpec(name="j", iterations=2, warmup_iterations=2)


class TestLifecycle:
    def _record(self):
        store = JobStore()
        return store, store.submit(JobSpec(name="j"), now=1.0)

    def test_happy_path(self):
        store, record = self._record()
        store.mark_started(record, 2.0)
        store.mark_completed(record, 5.0)
        assert record.state is JobState.COMPLETED
        assert record.queue_wait_s == 1.0
        assert store.all_done()

    def test_preemption_requeues_and_accumulates_wait(self):
        store, record = self._record()
        store.mark_started(record, 2.0)
        store.mark_preempted(record, 4.0)
        assert record.state is JobState.PREEMPTED
        assert record.preemptions == 1
        assert record in store.waiting()
        store.mark_started(record, 7.0)
        assert record.queue_wait_s == 1.0 + 3.0
        # started_at keeps the FIRST start (for victim ordering)
        assert record.started_at == 2.0

    def test_illegal_transition_rejected(self):
        store, record = self._record()
        with pytest.raises(ConfigurationError, match="illegal transition"):
            store.mark_completed(record, 2.0)

    def test_tenant_accounting(self):
        store = JobStore()
        a = store.submit(JobSpec(name="a", tenant="x"), 0.0)
        b = store.submit(JobSpec(name="b", tenant="x"), 0.0)
        store.mark_started(a, 0.0)
        store.mark_started(b, 0.0)
        store.charge_gpu_seconds(a, 8.0)
        store.charge_checkpoint(b, 1.5)
        store.mark_completed(a, 2.0)
        store.mark_failed(b, 2.0, "boom")
        account = store.tenants["x"]
        assert account.jobs_submitted == 2
        assert account.jobs_completed == 1
        assert account.jobs_failed == 1
        assert account.gpu_seconds == 8.0
        assert account.checkpoint_overhead_s == 1.5

    def test_concurrency_high_water_marks(self):
        store = JobStore()
        jobs = [store.submit(JobSpec(name=f"j{i}"), 0.0) for i in range(3)]
        store.mark_started(jobs[0], 0.0)
        store.mark_started(jobs[1], 0.0)
        store.mark_completed(jobs[0], 1.0)
        store.mark_started(jobs[2], 1.0)
        assert store.max_concurrent == 2
        assert store.max_in_system == 3

    def test_dense_deterministic_job_ids(self):
        store = JobStore()
        ids = [store.submit(JobSpec(name="n"), 0.0).job_id
               for _ in range(3)]
        assert ids == ["job0", "job1", "job2"]


class TestArrivals:
    def test_seeded_stream_is_reproducible(self):
        a = poisson_arrivals(1200.0, 10, seed=11)
        b = poisson_arrivals(1200.0, 10, seed=11)
        assert [(x.time, x.spec) for x in a] == [(y.time, y.spec)
                                                for y in b]

    def test_different_seeds_differ(self):
        a = poisson_arrivals(1200.0, 10, seed=1)
        b = poisson_arrivals(1200.0, 10, seed=2)
        assert [x.time for x in a] != [y.time for y in b]

    def test_times_nondecreasing_and_mean_rate_sane(self):
        arrivals = poisson_arrivals(3600.0, 200, seed=7)
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        # mean interarrival should be within 3x of 1s at rate 3600/h
        assert 0.3 < times[-1] / len(times) < 3.0

    def test_every_mix_draws_valid_specs(self):
        for mix in JOB_MIXES:
            for arrival in poisson_arrivals(1200.0, 5, seed=3, mix=mix):
                assert arrival.spec.gpus >= 1

    def test_unknown_mix_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job mix"):
            poisson_arrivals(1200.0, 5, mix="nope")

    def test_trace_arrivals_parse_and_default_names(self):
        arrivals = trace_arrivals([
            {"time": 0.0, "strategy": "ddp", "gpus": 2},
            {"time": 1.5, "name": "named", "gpus": 4},
        ])
        assert arrivals[0].spec.name == "trace-0"
        assert arrivals[1].spec.name == "named"
        assert arrivals[1].time == 1.5

    def test_trace_must_be_time_ordered(self):
        with pytest.raises(ConfigurationError, match="back in time"):
            trace_arrivals([{"time": 2.0}, {"time": 1.0}])

    def test_trace_entry_needs_time(self):
        with pytest.raises(ConfigurationError, match="no arrival time"):
            trace_arrivals([{"name": "j"}])


class TestScenario:
    def test_round_trip_and_cache_key_stability(self):
        scenario = ClusterScenario(policy="sjf", num_jobs=6,
                                   aging_rate=0.5, tie_order="seeded")
        again = ClusterScenario.from_dict(scenario.to_dict())
        assert again == scenario
        assert again.cache_key() == scenario.cache_key()

    def test_cache_key_separates_scenarios(self):
        a = ClusterScenario(policy="fifo")
        b = ClusterScenario(policy="sjf")
        assert a.cache_key() != b.cache_key()

    def test_trace_scenario_round_trips(self):
        scenario = ClusterScenario(
            arrivals="trace",
            trace_jobs=({"time": 0.0, "name": "j", "gpus": 2},),
        )
        again = ClusterScenario.from_dict(scenario.to_dict())
        assert again.expand_arrivals()[0].spec.name == "j"

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            ClusterScenario(policy="lifo")

    def test_trace_mode_needs_jobs(self):
        with pytest.raises(ConfigurationError, match="trace_jobs"):
            ClusterScenario(arrivals="trace")
