"""Experiment registry and the light experiment modules."""

import ast
import inspect

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    EXPERIMENTS,
    PAPER_EXPERIMENTS,
    run_experiment,
)
from repro.experiments.common import (
    ALL_STRATEGIES,
    CORE_STRATEGIES,
    ExperimentResult,
    ExperimentSpec,
    make_strategy,
)
from repro.experiments.registry import spec_for

#: experiments whose module runs training through ``run_training``
TRAINING_EXPERIMENTS = sorted(
    experiment_id for experiment_id, run in EXPERIMENTS.items()
    if hasattr(inspect.getmodule(run), "run_training")
)


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        for required in ("fig1", "fig3", "fig4", "fig5", "fig6", "fig7",
                         "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
                         "fig14_table6", "table1", "table3", "table4",
                         "table5"):
            assert required in EXPERIMENTS

    def test_ablations_registered(self):
        for ablation in ("ablation_serdes", "ablation_overlap",
                         "ablation_nvme", "ablation_buffers"):
            assert ablation in EXPERIMENTS

    def test_paper_order_subset_of_registry(self):
        assert set(PAPER_EXPERIMENTS) <= set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")


class _FirstTrainingRun(Exception):
    """Raised by the spy to stop an experiment at its first training run."""


class TestFidelityIsPassed:
    """Experiments hand their spec's fidelity to every training run;
    nothing supplies it from ambient state."""

    def test_training_experiments_found(self):
        assert len(TRAINING_EXPERIMENTS) == 20

    @pytest.mark.parametrize("experiment_id", TRAINING_EXPERIMENTS)
    def test_first_training_run_gets_the_spec_fidelity(self, experiment_id,
                                                        monkeypatch):
        module = inspect.getmodule(EXPERIMENTS[experiment_id])
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("fidelity", "full"))
            raise _FirstTrainingRun

        monkeypatch.setattr(module, "run_training", spy)
        spec = ExperimentSpec.from_dict(
            {**spec_for(experiment_id).to_dict(), "fidelity": "hybrid"})
        with pytest.raises(_FirstTrainingRun):
            module.run(spec)
        assert seen == ["hybrid"]

    @pytest.mark.parametrize("experiment_id", TRAINING_EXPERIMENTS)
    def test_every_training_call_passes_the_spec_fidelity(self,
                                                          experiment_id):
        # The spy stops at the first call; the source shows all of them.
        source = inspect.getsource(
            inspect.getmodule(EXPERIMENTS[experiment_id]))
        calls = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "run_training"]
        assert calls
        for call in calls:
            passed = {keyword.arg: ast.unparse(keyword.value)
                      for keyword in call.keywords}
            assert passed.get("fidelity") == "spec.fidelity", call.lineno


class TestStrategyFactories:
    def test_core_strategies(self):
        assert set(CORE_STRATEGIES) == {"ddp", "megatron", "zero1", "zero2",
                                        "zero3"}

    def test_factories_produce_fresh_instances(self):
        a = make_strategy("zero2")
        b = make_strategy("zero2")
        assert a is not b
        assert a.name == b.name == "zero2"

    def test_all_strategies_nameable(self):
        for name in ALL_STRATEGIES:
            assert make_strategy(name).name == name


class TestExperimentResult:
    def test_row_by(self):
        result = ExperimentResult("x", "t", rows=[
            {"strategy": "ddp", "value": 1},
            {"strategy": "zero2", "value": 2},
        ])
        assert result.row_by(strategy="zero2")["value"] == 2
        with pytest.raises(KeyError):
            result.row_by(strategy="nope")


class TestLightExperiments:
    """Fast experiments run inside the unit suite; the heavy ones are
    exercised by the benchmark harness."""

    def test_fig1(self):
        result = run_experiment("fig1")
        growth = result.row_by(series="growth_factor",
                               name="model 2018-2020")
        assert growth["value"] > 1000  # the paper's 1000x claim
        memory = result.row_by(series="growth_factor",
                               name="gpu memory 2017-2020")
        assert memory["value"] == pytest.approx(5.0)

    def test_table1_matches_paper_matrix(self):
        result = run_experiment("table1")
        stage3 = result.row_by(stage=3)
        assert stage3["parameter_nvme"]
        stage1 = result.row_by(stage=1)
        assert stage1["optimizer_cpu"] and not stage1["optimizer_nvme"]

    def test_table3_inventory(self):
        result = run_experiment("table3")
        nvlink = result.row_by(interface="NVLink")
        assert (nvlink["built_paper_convention_gbps"]
                == pytest.approx(nvlink["paper_aggregate_gbps"], rel=0.01))
        xgmi = result.row_by(interface="xGMI")
        assert xgmi["built_aggregate_gbps"] == pytest.approx(
            xgmi["paper_aggregate_gbps"], rel=0.01)

    def test_fig3_bounds(self):
        result = run_experiment("fig3")
        small = [r for r in result.rows if r["message_bytes"] < 64 * 1024]
        same = [r["latency_us"] for r in small
                if r["placement"] == "same_socket"
                and r["verb"] != "rdma_read"]
        cross = [r["latency_us"] for r in small
                 if r["placement"] == "cross_socket"
                 and r["verb"] != "rdma_read"]
        assert max(same) < 6.5
        assert max(cross) < 40.0

    def test_fig4_fractions(self):
        result = run_experiment("fig4")
        for row in result.rows:
            assert row["attained_fraction"] == pytest.approx(
                row["paper_fraction"], abs=0.09)

    def test_fig6_sizes_within_fifteen_percent(self):
        result = run_experiment("fig6")
        for row in result.rows:
            assert row["achieved_b"] == pytest.approx(row["paper_b"],
                                                      rel=0.15)

    def test_rendered_output_nonempty(self):
        for eid in ("fig1", "table1", "table3", "fig3", "fig4", "fig6"):
            assert run_experiment(eid).rendered.strip()
