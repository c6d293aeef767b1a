"""Inference serving: requests, cost model, KV cache, scheduler, service."""

import pytest

from repro.analysis.determinism.differ import diff_headline_runs
from repro.errors import ConfigurationError
from repro.hardware.devices import MemoryPool
from repro.inference import (
    InferenceSpec,
    KvCache,
    PhaseCostModel,
    REQUEST_MIXES,
    Request,
    RequestRecord,
    ServingScheduler,
    decode_flops,
    kv_bytes_per_token,
    poisson_requests,
    prefill_flops,
    run_inference,
    trace_requests,
    weight_bytes,
)
from repro.model.config import paper_model
from repro.sim.engine import ReversedTies, SeededTies
from repro.trace import DEFAULT_COUNTER_SAMPLES


def _tie_name(order):
    if isinstance(order, ReversedTies):
        return "reversed"
    if isinstance(order, SeededTies):
        return "seeded"
    return "fifo"


class TestRequests:
    def test_poisson_is_seed_deterministic(self):
        a = poisson_requests(4.0, 16, seed=7)
        b = poisson_requests(4.0, 16, seed=7)
        assert a == b
        assert poisson_requests(4.0, 16, seed=8) != a

    def test_times_are_increasing_and_positive(self):
        stream = poisson_requests(10.0, 32, seed=7)
        times = [request.time for request in stream]
        assert all(t > 0 for t in times)
        assert times == sorted(times)

    @pytest.mark.parametrize("mix", sorted(REQUEST_MIXES))
    def test_every_mix_fits_the_model_window(self, mix):
        """No template may exceed the models' position window."""
        config = paper_model(num_layers=2)
        for _, template in REQUEST_MIXES[mix]:
            total = template["prompt_tokens"] + template["output_tokens"]
            assert total <= config.max_position_embeddings

    def test_unknown_mix_rejected(self):
        with pytest.raises(ConfigurationError, match="mix"):
            poisson_requests(4.0, 4, mix="nope")

    def test_trace_requests_round_trip_and_validation(self):
        stream = trace_requests([
            {"time": 0.0, "prompt_tokens": 64, "output_tokens": 8},
            {"time": 0.5, "prompt_tokens": 32, "output_tokens": 4,
             "name": "vip"},
        ])
        assert [r.name for r in stream] == ["trace-0", "vip"]
        with pytest.raises(ConfigurationError, match="time"):
            trace_requests([{"prompt_tokens": 1, "output_tokens": 1}])
        with pytest.raises(ConfigurationError, match="back in time"):
            trace_requests([
                {"time": 1.0, "prompt_tokens": 1, "output_tokens": 1},
                {"time": 0.5, "prompt_tokens": 1, "output_tokens": 1},
            ])
        with pytest.raises(ConfigurationError, match="mystery"):
            trace_requests([{"time": 0.0, "prompt_tokens": 1,
                             "output_tokens": 1, "mystery": True}])


class TestCostModel:
    def setup_method(self):
        self.config = paper_model(num_layers=4)

    def test_prefill_flops_scale_with_prompt(self):
        assert prefill_flops(self.config, 256) > prefill_flops(
            self.config, 128) > 0

    def test_decode_flops_grow_with_context(self):
        assert decode_flops(self.config, 512) > decode_flops(
            self.config, 64) > 0

    def test_kv_bytes_formula(self):
        h = self.config.hidden_size
        layers = self.config.num_layers
        assert kv_bytes_per_token(self.config, 2) == 2 * layers * h * 2

    def test_weight_bytes_positive_and_precision_scaled(self):
        assert weight_bytes(self.config, 4) == 2 * weight_bytes(
            self.config, 2) > 0

    def test_tensor_parallel_shards_evenly(self):
        from repro.hardware.presets import single_node_cluster
        gpu = single_node_cluster().nodes[0].spec.gpu
        solo = PhaseCostModel(self.config, gpu, tensor_parallel=1)
        tp4 = PhaseCostModel(self.config, gpu, tensor_parallel=4)
        assert tp4.kv_token_bytes_per_rank * 4 == pytest.approx(
            solo.kv_token_bytes)
        assert tp4.weight_bytes_per_rank * 4 == pytest.approx(
            solo.weight_bytes_per_rank)
        # A shard computes faster than the whole model.
        assert tp4.prefill_time(256) < solo.prefill_time(256)
        assert tp4.decode_step_time([256]) < solo.decode_step_time([256])


class TestKvCache:
    def _pool(self, capacity=1000.0):
        return MemoryPool(capacity, owner="gpu0.hbm")

    def test_budget_is_footprinted_as_slack(self):
        pool = self._pool()
        cache = KvCache([pool], budget_per_rank=800.0,
                        bytes_per_token_per_rank=2.0)
        assert pool.used_bytes == 800.0
        cache.reserve("r0", 100)  # 200 bytes
        assert pool.used_bytes == 800.0  # footprint never moves
        assert pool.usage_by_label()["kv/r0"] == 200.0
        cache.release("r0")
        assert pool.usage_by_label()["kv/slack"] == 800.0
        cache.close()
        assert pool.used_bytes == 0.0

    def test_fits_gates_reserve(self):
        cache = KvCache([self._pool()], budget_per_rank=100.0,
                        bytes_per_token_per_rank=1.0)
        assert cache.fits(100)
        assert not cache.fits(101)
        cache.reserve("a", 60)
        assert not cache.fits(41)
        with pytest.raises(ConfigurationError, match="admission"):
            cache.reserve("b", 41)
        cache.reserve("b", 40)
        assert cache.resident_requests == ["a", "b"]
        assert cache.peak_reserved_per_rank == 100.0

    def test_double_reserve_and_unknown_release_raise(self):
        cache = KvCache([self._pool()], budget_per_rank=100.0,
                        bytes_per_token_per_rank=1.0)
        cache.reserve("a", 10)
        with pytest.raises(ConfigurationError, match="already"):
            cache.reserve("a", 10)
        with pytest.raises(ConfigurationError, match="no KV"):
            cache.release("ghost")

    def test_close_with_live_reservations_is_loud(self):
        cache = KvCache([self._pool()], budget_per_rank=100.0,
                        bytes_per_token_per_rank=1.0)
        cache.reserve("a", 10)
        with pytest.raises(ConfigurationError, match="live"):
            cache.close()


class TestInferenceSpec:
    def test_needs_exactly_one_size(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            InferenceSpec()
        with pytest.raises(ConfigurationError, match="exactly one"):
            InferenceSpec(size_billions=0.7, num_layers=4)

    @pytest.mark.parametrize("changes,match", [
        ({"batching": "dynamic"}, "batching"),
        ({"request_mix": "nope"}, "mix"),
        ({"kv_fraction": 0.0}, "kv_fraction"),
        ({"rate_per_second": 0.0}, "rate"),
        ({"gpus": 0}, "tensor-parallel"),
        ({"slo_ttft_s": 0.0}, "SLO"),
        ({"tie_order": "sideways"}, "tie order"),
    ])
    def test_validation(self, changes, match):
        with pytest.raises(ConfigurationError, match=match):
            InferenceSpec(size_billions=0.7, **changes)

    def test_replace_revalidates_and_rejects_unknown(self):
        spec = InferenceSpec(size_billions=0.7)
        with pytest.raises(ConfigurationError, match="tensor-parallel"):
            spec.replace(gpus=0)
        with pytest.raises(ConfigurationError, match="warp_factor"):
            spec.replace(warp_factor=9)
        assert spec.replace(gpus=2).gpus == 2

    def test_oversized_request_is_rejected_up_front(self):
        spec = InferenceSpec(size_billions=0.7, max_batch_tokens=64)
        with pytest.raises(ConfigurationError, match="never be admitted"):
            spec.expand_requests()


class TestService:
    def _spec(self, **overrides):
        base = dict(size_billions=0.35, gpus=2, num_requests=10,
                    rate_per_second=8.0, leak_check=True)
        base.update(overrides)
        return InferenceSpec(**base)

    def test_serves_every_request_leak_free(self):
        run = run_inference(self._spec())
        report = run.report
        assert report.requests_completed == report.requests_submitted == 10
        assert report.leaks is not None and report.leaks.clean
        assert report.tokens_generated > 0
        assert 0.0 <= report.slo_attainment <= 1.0
        assert report.kv_peak_bytes <= report.kv_budget_bytes
        assert report.ttft_p50_s <= report.ttft_p99_s
        assert report.goodput_requests_per_s > 0

    @pytest.mark.parametrize("batching", ["continuous", "static"])
    def test_both_policies_complete(self, batching):
        report = run_inference(self._spec(batching=batching)).report
        assert report.requests_completed == 10
        assert report.batching == batching

    def test_continuous_beats_static_on_queue_wait(self):
        """Continuous batching admits at step boundaries, so under the
        same traffic nobody waits longer than under static batching."""
        continuous = run_inference(self._spec()).report
        static = run_inference(self._spec(batching="static")).report
        assert (continuous.queue_wait_p99_s
                <= static.queue_wait_p99_s + 1e-9)
        assert continuous.total_time_s <= static.total_time_s + 1e-9

    def test_payload_bit_identical_across_runs(self):
        spec = self._spec(trace=True)
        assert (run_inference(spec).report.to_dict()
                == run_inference(spec).report.to_dict())

    def test_tie_order_invariance(self):
        """Same spec => field-identical reports under fifo/reversed/
        seeded engine tie orders (the PR 3 differ harness)."""
        spec = self._spec()

        def run(order):
            perturbed = spec.replace(tie_order=_tie_name(order))
            return run_inference(perturbed).report.headline()

        diffs, orders = diff_headline_runs(run, seed=7)
        assert orders == ["reversed", "seeded[7]"]
        assert diffs == []

    def test_trace_has_serving_spans_and_flows(self):
        run = run_inference(self._spec(trace=True))
        trace = run.trace
        assert trace is not None
        names = {span.name for span in trace.spans}
        assert any(name.startswith("prefill[") for name in names)
        assert any(name.startswith("decode[") for name in names)
        assert trace.flows  # TP all-reduces crossed real links
        # Every link a flow crossed has an account and a full counter
        # track, and flows never claim more bytes than it shows.
        accounts = {account.name: account for account in trace.links}
        tracks = {track.name: track for track in trace.counters}
        for link, num_bytes in trace.flow_bytes_by_link().items():
            assert link in accounts
            assert (len(tracks[f"link:{link}"].values)
                    == DEFAULT_COUNTER_SAMPLES)
            assert num_bytes <= accounts[link].total_bytes * (1 + 1e-12)
        assert trace.collectives
        assert {(c.comm, c.kind, c.ranks) for c in trace.collectives} == {
            ("tp", "all_reduce", (0, 1))}

    def test_single_gpu_has_no_collective_flows(self):
        run = run_inference(self._spec(gpus=1, trace=True))
        assert run.report.requests_completed == 10
        assert not run.trace.flows

    def test_trace_arrivals_replay(self):
        spec = InferenceSpec(
            size_billions=0.35, gpus=2, arrivals="trace",
            trace_requests=(
                {"time": 0.0, "prompt_tokens": 64, "output_tokens": 4},
                {"time": 0.1, "prompt_tokens": 128, "output_tokens": 8},
            ),
            leak_check=True,
        )
        report = run_inference(spec).report
        assert report.requests_completed == 2
        assert report.leaks.clean

    def test_tp_must_divide_heads(self):
        with pytest.raises(ConfigurationError, match="divide"):
            run_inference(self._spec(gpus=3))


class TestServingScheduler:
    @pytest.mark.parametrize("batching", ["continuous", "static"])
    def test_serve_returns_when_the_last_request_finishes(self, batching):
        """The loop returns at the instant its last record finishes,
        although unrelated work is still queued behind it, and only
        then: every record is done and counted."""
        from repro.hardware.presets import single_node_cluster
        from repro.sim.engine import Engine

        gpu = single_node_cluster().nodes[0].spec.gpu
        cost = PhaseCostModel(paper_model(num_layers=4), gpu,
                              tensor_parallel=1)
        pool = MemoryPool(1e12, owner="gpu0.hbm")
        kvcache = KvCache([pool], budget_per_rank=1e9,
                          bytes_per_token_per_rank=cost.kv_token_bytes_per_rank)
        engine = Engine()
        scheduler = ServingScheduler(
            engine, cost, kvcache, comm=None, batching=batching,
            max_batch_tokens=4096, max_batch_requests=2)
        records = [RequestRecord(Request(f"r{i}", 0.001 * i, 32, 1 + 3 * i))
                   for i in range(5)]
        for record in records:
            engine.schedule_at(record.request.time, scheduler.submit, record)
        returned_at = []
        serving = engine.process(scheduler.serve(records), name="serving")
        serving.add_callback(lambda event: returned_at.append(engine.now))
        engine.schedule_at(60.0, lambda: None)  # unrelated later work
        engine.run()
        assert all(record.done for record in records)
        assert serving.value.completed == len(records)
        assert returned_at == [max(r.finished_at for r in records)]
        kvcache.close()


class TestClusterIntegration:
    def test_mixed_stream_shares_the_fabric(self):
        """Train + inference jobs on one engine/ledger set, leak-free."""
        from repro.cluster import ClusterScenario, run_cluster

        scenario = ClusterScenario(
            name="mixed", nodes=2, arrivals="poisson",
            rate_per_hour=2000.0, num_jobs=10, mix="mixed",
            trace=True, leak_check=True,
        )
        run = run_cluster(scenario)
        report = run.report
        assert report.jobs_completed == 10
        assert report.jobs_failed == 0
        assert "serving" in report.tenants
        assert report.tenants["serving"]["jobs_completed"] >= 1
        assert run.leaks is not None and run.leaks.clean
        serving_spans = [span for span in run.trace.spans
                         if "prefill[" in span.name
                         or "decode[" in span.name]
        assert serving_spans
        assert all(span.name.split(":")[0].startswith("job")
                   for span in serving_spans)

    def test_inference_job_survives_preemption(self):
        """A low-priority serving instance is preempted by a training
        job, requeues with its completed requests retained, and still
        finishes every request."""
        from repro.cluster import ClusterScenario, run_cluster

        scenario = ClusterScenario(
            name="preempt", nodes=1, arrivals="trace",
            trace_jobs=(
                {"time": 0.0, "name": "serve", "tenant": "serving",
                 "workload": "inference", "size_billions": 0.35,
                 "gpus": 4, "iterations": 6, "priority": 0,
                 "request_rate_per_s": 0.5},
                {"time": 1.0, "name": "train", "tenant": "research",
                 "strategy": "ddp", "size_billions": 0.35, "gpus": 4,
                 "iterations": 2, "priority": 5},
            ),
            leak_check=True,
        )
        run = run_cluster(scenario)
        report = run.report
        assert report.jobs_completed == 2
        assert report.preemptions >= 1
        assert report.tenants["serving"]["preemptions"] >= 1
        assert report.tenants["serving"]["jobs_completed"] == 1
        assert run.leaks is not None and run.leaks.clean

    def test_mixed_cluster_is_tie_order_invariant(self):
        from repro.cluster import ClusterScenario, run_cluster

        scenario = ClusterScenario(
            name="mixed-ties", nodes=2, arrivals="poisson",
            rate_per_hour=3000.0, num_jobs=6, mix="mixed",
        )

        def run(order):
            perturbed = scenario.replace(tie_order=_tie_name(order))
            return run_cluster(perturbed).report.headline()

        diffs, orders = diff_headline_runs(run, seed=7)
        assert orders == ["reversed", "seeded[7]"]
        assert diffs == []

    def test_bad_serving_job_is_rejected_up_front(self):
        from repro.cluster import ClusterScenario, run_cluster

        scenario = ClusterScenario(
            name="bad", nodes=1, arrivals="trace",
            trace_jobs=(
                {"time": 0.0, "name": "serve", "workload": "inference",
                 "size_billions": 0.35, "gpus": 4, "iterations": 2,
                 "max_batch_tokens": 64},
            ),
        )
        with pytest.raises(ConfigurationError, match="never be admitted"):
            run_cluster(scenario)
