"""True 1F1B pipeline parallelism (extension)."""

import pytest

from repro.core.runner import run_training
from repro.core.search import model_for_billions
from repro.errors import ConfigurationError
from repro.hardware import dual_node_cluster, single_node_cluster
from repro.hardware.link import LinkClass
from repro.model import TrainingConfig, paper_model
from repro.parallel import MegatronStrategy, pipeline_1f1b
from repro.parallel.schedule import CollectiveStep
from repro.parallel.strategy import StrategyContext
from repro.trace.query import compute_busy_fraction


@pytest.fixture(scope="module")
def ctx():
    return StrategyContext(single_node_cluster(), paper_model(26),
                           TrainingConfig())


class TestScheduleConstruction:
    def test_stage_layers_partition(self, ctx):
        strategy = pipeline_1f1b()
        layers = strategy.stage_layers(ctx)
        assert sum(layers) == 26
        assert len(layers) == 4
        assert max(layers) - min(layers) <= 1

    def test_micro_batch_default_is_twice_stages(self, ctx):
        assert pipeline_1f1b().micro_batches(ctx) == 8
        assert pipeline_1f1b(micro_batches=12).micro_batches(ctx) == 12

    def test_schedule_validates(self, ctx):
        schedule = pipeline_1f1b().build_schedule(ctx)
        schedule.validate()

    def test_per_rank_schedules_differ(self, ctx):
        schedule = pipeline_1f1b().build_schedule(ctx)
        lengths = {len(steps) for steps in schedule.steps_by_rank.values()}
        # First/last stages have one-sided communication: different shapes.
        first = schedule.steps_by_rank[0]
        last = schedule.steps_by_rank[3]
        first_comms = [s.comm for s in first
                       if isinstance(s, CollectiveStep)]
        last_comms = [s.comm for s in last if isinstance(s, CollectiveStep)]
        assert set(first_comms) == {"ppb0"}
        assert set(last_comms) == {"ppb2"}

    def test_boundary_communicators_are_pairs(self, ctx):
        schedule = pipeline_1f1b().build_schedule(ctx)
        for name, spec in schedule.communicators.items():
            assert len(spec.groups) == 1
            assert len(spec.groups[0]) == 2

    def test_rejects_single_gpu_or_thin_models(self):
        ctx_thin = StrategyContext(single_node_cluster(), paper_model(2),
                                   TrainingConfig())
        with pytest.raises(ConfigurationError):
            pipeline_1f1b().build_schedule(ctx_thin)


class TestExecution:
    def test_runs_and_produces_emergent_bubble(self):
        cluster = single_node_cluster()
        metrics = run_training(cluster, pipeline_1f1b(),
                               model_for_billions(1.4), iterations=3)
        busy = compute_busy_fraction(metrics.execution.spans, 0)
        # The fill/drain bubble emerges: busy strictly between 30 and 95 %.
        assert 0.3 < busy < 0.95

    def test_more_micro_batches_amortize_the_bubble(self):
        cluster = single_node_cluster()
        model = model_for_billions(1.4)
        few = run_training(cluster, pipeline_1f1b(micro_batches=4), model,
                           iterations=3)
        many = run_training(cluster, pipeline_1f1b(micro_batches=32), model,
                            iterations=3)
        assert many.tflops > few.tflops

    def test_internode_traffic_is_tiny_vs_tensor_parallel(self):
        model = model_for_billions(1.4)
        cluster = dual_node_cluster()
        pp = run_training(cluster, pipeline_1f1b(), model, iterations=3)
        cluster2 = dual_node_cluster()
        tp = run_training(cluster2, MegatronStrategy(), model, iterations=3)
        assert (pp.bandwidth[LinkClass.ROCE].average
                < 0.1 * tp.bandwidth[LinkClass.ROCE].average)
        assert pp.tflops > tp.tflops

    def test_memory_divides_states_by_stages(self):
        cluster = single_node_cluster()
        metrics = run_training(cluster, pipeline_1f1b(),
                               model_for_billions(1.4), iterations=2)
        per_gpu_params = metrics.memory.gpu_by_label["parameters"] / 4
        # fp16 parameters of one stage's layer block: 2 B x P / stages.
        assert per_gpu_params == pytest.approx(
            2 * metrics.model_parameters / 4, rel=0.01)
