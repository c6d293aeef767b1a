"""Static-analysis subsystem: findings, passes, liveness, source lints."""

import dataclasses
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisContext,
    AnalysisPass,
    BaselineEntry,
    Finding,
    Report,
    Severity,
    analyze_run_config,
    analyze_source,
    apply_baseline,
    check_liveness,
    claim_codes,
    code_owners,
    diagnose,
    iter_passes,
    load_baseline,
    register_pass,
    render_json,
    render_text,
    run_passes,
    self_check,
    write_baseline,
)
from repro.analysis.registry import get_pass
from repro.api.build import preset_cluster
from repro.core.runner import run_training
from repro.core.search import model_for_billions
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.common import ALL_STRATEGIES, make_strategy
from repro.hardware import Cluster, ClusterSpec, dual_node_cluster, single_node_cluster
from repro.hardware.link import Link, LinkClass
from repro.model.config import paper_model
from repro.model.states import OffloadTarget, ZeroStage
from repro.parallel import (
    DdpStrategy,
    MegatronStrategy,
    PipelineParallelStrategy,
    TrainingStrategy,
    zero2,
    zero3,
)
from repro.parallel.placement import PLACEMENTS
from repro.parallel.zero import ZeroStrategy
from repro.sim.engine import Engine


# ---------------------------------------------------------------------------
# Finding / Report model
# ---------------------------------------------------------------------------

class TestReport:
    def test_severity_ordering_and_exit_code(self):
        report = Report()
        assert report.ok and report.exit_code == 0
        report.add(Finding("p", Severity.WARNING, "X001", "meh"))
        assert report.ok and report.exit_code == 0
        report.add(Finding("p", Severity.ERROR, "X002", "bad"))
        assert not report.ok and report.exit_code == 1
        assert len(report.errors) == 1 and len(report.warnings) == 1

    def test_exit_code_at_threshold(self):
        report = Report()
        assert report.exit_code_at(Severity.WARNING) == 0
        report.add(Finding("p", Severity.WARNING, "X001", "meh"))
        assert report.exit_code_at(Severity.ERROR) == 0
        assert report.exit_code_at(Severity.WARNING) == 1
        report.add(Finding("p", Severity.ERROR, "X002", "bad"))
        assert report.exit_code_at(Severity.ERROR) == 1
        assert report.exit_code == report.exit_code_at(Severity.ERROR)

    def test_raise_on_error_message_contains_codes(self):
        report = Report()
        report.add(Finding("p", Severity.ERROR, "X002", "it broke"))
        with pytest.raises(ConfigurationError, match=r"\[X002\] it broke"):
            report.raise_on_error("preflight failed")

    def test_warnings_do_not_raise(self):
        report = Report()
        report.add(Finding("p", Severity.WARNING, "X001", "meh"))
        report.raise_on_error("preflight failed")

    def test_to_dict_round_trips_through_json(self):
        report = Report()
        report.passes_run.append("p")
        report.add(Finding("p", Severity.INFO, "X000", "note",
                           subject="s", location="f.py:3"))
        payload = json.loads(render_json(report))
        assert payload["ok"] is True
        assert payload["passes_run"] == ["p"]
        assert payload["findings"][0]["severity"] == "info"
        assert payload["findings"][0]["location"] == "f.py:3"

    def test_render_text_groups_errors_first(self):
        report = Report()
        report.add(Finding("p", Severity.INFO, "X000", "a note"))
        report.add(Finding("p", Severity.ERROR, "X002", "the error"))
        text = render_text(report)
        assert text.index("the error") < text.index("a note")
        assert "1 errors" in text


# ---------------------------------------------------------------------------
# Pass registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_pass("parallel-degrees", family="config",
                          description="dup")(lambda ctx: [])

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            register_pass("x-unique-name", family="nope",
                          description="bad")(lambda ctx: [])

    def test_cheap_only_excludes_memory_capacity(self):
        names = [p.name for p in iter_passes(("config",), cheap_only=True)]
        assert "memory-capacity" not in names
        assert "parallel-degrees" in names

    def test_get_pass(self):
        assert get_pass("memory-capacity").cheap is False


# ---------------------------------------------------------------------------
# Finding-code registry discipline
# ---------------------------------------------------------------------------

class TestRegistryCodes:
    def test_self_check_passes_on_builtin_registry(self):
        stats = self_check()
        assert stats["passes"] >= 16
        assert stats["claimed_codes"] >= 48
        assert "determinism" not in stats["families"]  # DET lives in source

    def test_code_owner_spot_checks(self):
        owners = code_owners()
        assert owners["CFG001"] == "parallel-degrees"
        assert owners["LIVE001"] == "des-liveness"
        assert owners["DET001"] == "det-set-iteration"
        assert owners["DET110"] == "schedule-sanitizer"
        assert owners["DET120"] == "perturbation-differ"

    def test_campaign_cache_codes_claimed(self):
        from repro.campaign.cache import CACHE_CODES  # claims on import

        owners = code_owners()
        for code in CACHE_CODES:
            assert owners[code] == "campaign-cache"
        self_check()  # the claims survive the registry's own audit

    def test_cross_owner_code_collision_rejected(self):
        claim_codes("collision-test-owner", ("ZZZ901",))
        claim_codes("collision-test-owner", ("ZZZ901",))  # reclaim OK
        with pytest.raises(ConfigurationError, match="ZZZ901"):
            claim_codes("some-other-owner", ("ZZZ901",))

    def test_malformed_code_rejected(self):
        with pytest.raises(ConfigurationError):
            claim_codes("malformed-test-owner", ("not-a-code",))

    def test_register_pass_with_colliding_code_rejected(self):
        with pytest.raises(ConfigurationError):
            register_pass("x-colliding-pass", family="config",
                          description="steals CFG001",
                          codes=("CFG001",))(lambda ctx: [])
        with pytest.raises(KeyError):
            get_pass("x-colliding-pass")  # collision kept it unregistered

    def test_pass_emitting_undeclared_code_rejected(self):
        rogue = AnalysisPass(
            name="x-rogue", family="source", description="lies about codes",
            cheap=True,
            fn=lambda ctx: [Finding("x-rogue", Severity.INFO, "ZZZ999", "m")],
            codes=("ZZZ998",),
        )
        with pytest.raises(ConfigurationError, match="ZZZ999"):
            rogue.run(AnalysisContext())


# ---------------------------------------------------------------------------
# Accepted-findings baseline
# ---------------------------------------------------------------------------

class TestBaseline:
    def _report(self):
        report = Report()
        report.add(Finding("p", Severity.WARNING, "DET001", "racy fold",
                           subject="pending", location="sim/x.py:12"))
        report.add(Finding("p", Severity.ERROR, "DET020", "wall clock",
                           location="sim/y.py:3"))
        return report

    def test_write_load_apply_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(self._report(), path)
        entries = load_baseline(path)
        assert len(entries) == 2
        filtered, stale = apply_baseline(self._report(), entries)
        assert filtered.findings == []
        assert stale == []

    def test_matching_ignores_line_numbers(self):
        entry = BaselineEntry(code="DET001", file="sim/x.py")
        shifted = Finding("p", Severity.WARNING, "DET001", "racy fold",
                          location="sim/x.py:99")
        assert entry.matches(shifted)

    def test_subject_narrows_the_match(self):
        entry = BaselineEntry(code="DET001", file="sim/x.py",
                              subject="pending")
        other = Finding("p", Severity.WARNING, "DET001", "racy fold",
                        subject="other_set", location="sim/x.py:12")
        assert not entry.matches(other)

    def test_stale_entries_surface(self):
        entries = [BaselineEntry(code="DET030", file="gone.py")]
        filtered, stale = apply_baseline(self._report(), entries)
        assert len(filtered.findings) == 2
        assert stale == entries

    def test_bad_baseline_files_raise(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigurationError):
            load_baseline(missing)
        bad_shape = tmp_path / "bad.json"
        bad_shape.write_text('{"version": 1}')
        with pytest.raises(ConfigurationError):
            load_baseline(bad_shape)
        bad_version = tmp_path / "v9.json"
        bad_version.write_text('{"version": 9, "accepted": []}')
        with pytest.raises(ConfigurationError):
            load_baseline(bad_version)
        bad_entry = tmp_path / "entry.json"
        bad_entry.write_text('{"version": 1, "accepted": [{"code": "X"}]}')
        with pytest.raises(ConfigurationError):
            load_baseline(bad_entry)


# ---------------------------------------------------------------------------
# Config/topology lints on real configurations
# ---------------------------------------------------------------------------

class TestAnalyzeRunConfig:
    @pytest.mark.parametrize("name", sorted(ALL_STRATEGIES))
    def test_shipped_strategies_have_no_errors(self, name):
        placement = PLACEMENTS["B"]
        if "nvme" in name:
            cluster = Cluster(ClusterSpec(num_nodes=1,
                                          node=placement.node_spec()))
        else:
            cluster = single_node_cluster()
        report = analyze_run_config(cluster, make_strategy(name),
                                    model_for_billions(1.4),
                                    placement=placement)
        assert report.ok, [f.message for f in report.errors]

    def test_tensor_parallel_must_divide_world(self):
        report = analyze_run_config(dual_node_cluster(), tensor_parallel=3)
        assert [f.code for f in report.errors] == ["CFG002"]

    def test_pipeline_parallel_must_divide_world(self):
        report = analyze_run_config(dual_node_cluster(), pipeline_parallel=5)
        assert "CFG003" in [f.code for f in report.errors]

    def test_product_must_divide_world(self):
        report = analyze_run_config(dual_node_cluster(),
                                    tensor_parallel=4, pipeline_parallel=2)
        assert report.ok  # 4 x 2 = 8 GPUs
        report = analyze_run_config(
            Cluster(ClusterSpec(num_nodes=2)),
            tensor_parallel=8, pipeline_parallel=2)
        assert "CFG004" in [f.code for f in report.errors]

    def test_degree_product_mismatch_flagged(self):
        class BrokenDegrees(DdpStrategy):
            def data_parallel_degree(self, ctx):
                return 3  # never matches a 4- or 8-GPU world

        report = analyze_run_config(single_node_cluster(), BrokenDegrees(),
                                    model_for_billions(0.7))
        assert "CFG001" in [f.code for f in report.errors]

    def test_corrupt_partition_accounting_flagged(self):
        class LeakyZero(ZeroStrategy):
            def memory_plan(self, ctx):
                plan = super().memory_plan(ctx)
                plan.gpu["optimizer_states"] *= 2  # breaks the 12 B/param sum
                return plan

        report = analyze_run_config(single_node_cluster(),
                                    LeakyZero(ZeroStage.OPTIMIZER),
                                    model_for_billions(0.7))
        assert "CFG010" in [f.code for f in report.errors]

    def test_illegal_offload_target_flagged(self):
        strategy = make_strategy("zero1_opt_cpu")
        strategy.optimizer_target = OffloadTarget.NVME  # ZeRO-1 cannot
        report = analyze_run_config(single_node_cluster(), strategy,
                                    model_for_billions(0.7))
        assert "CFG020" in [f.code for f in report.errors]

    def test_nvme_plan_needs_scratch_drives(self):
        # The stock single-node preset has fewer scratch drives than
        # placement G (4 drives) expects.
        report = analyze_run_config(single_node_cluster(),
                                    make_strategy("zero3_opt_nvme"),
                                    model_for_billions(1.4),
                                    placement=PLACEMENTS["G"])
        assert "CFG021" in [f.code for f in report.errors]

    def test_memory_capacity_predicts_oom(self):
        report = analyze_run_config(single_node_cluster(),
                                    make_strategy("zero1_opt_cpu"),
                                    model_for_billions(60))
        codes = {f.code for f in report.errors}
        assert {"CFG030", "CFG031", "CFG032"} <= codes

    def test_memory_capacity_not_in_cheap_set(self):
        report = analyze_run_config(single_node_cluster(),
                                    make_strategy("zero1_opt_cpu"),
                                    model_for_billions(60), cheap_only=True)
        assert report.ok
        assert "memory-capacity" not in report.passes_run

    def test_probe_error_becomes_finding(self):
        class ExplodingStrategy(DdpStrategy):
            def memory_plan(self, ctx):
                raise ConfigurationError("boom")

        report = analyze_run_config(single_node_cluster(),
                                    ExplodingStrategy(),
                                    model_for_billions(0.7))
        assert "CFG000" in [f.code for f in report.errors]

    def test_pipeline_micro_batch_divisibility(self):
        model = model_for_billions(1.4)
        report = analyze_run_config(dual_node_cluster(), model=model,
                                    pipeline_parallel=8)
        # 16 micro-batches over global batch 16*8=128: divides cleanly.
        assert "CFG042" not in [f.code for f in report.findings]
        from repro.model.config import TrainingConfig
        report = analyze_run_config(
            dual_node_cluster(), model=model, pipeline_parallel=8,
            training=TrainingConfig(micro_batch_per_gpu=3))
        assert "CFG042" in [f.code for f in report.errors]


def _fired(report):
    return {(f.code, f.severity) for f in report.findings}


def _doubling(base, label):
    """``base`` with one model state doubled in every rank's plan."""
    class Doubled(base):
        def memory_plan(self, ctx):
            plan = super().memory_plan(ctx)
            plan.gpu[label] *= 2
            return plan
    return Doubled


class Unmodeled(TrainingStrategy):
    """A strategy outside the five partition-accounting models."""

    name = "unmodeled"

    def __init__(self):
        self._ddp = DdpStrategy()
        super().__init__(self._ddp.calibration)

    def data_parallel_degree(self, ctx):
        return self._ddp.data_parallel_degree(ctx)

    def memory_plan(self, ctx):
        return self._ddp.memory_plan(ctx)

    def build_schedule(self, ctx):
        return self._ddp.build_schedule(ctx)


class TestPlantedConfigCodes:
    """Each code plants the configuration it guards and fires alone,
    or with the codes that configuration must also trip."""

    def test_parallel_degrees(self):
        # CFG005: two layers cannot fill four pipeline stages.
        report = analyze_run_config(preset_cluster(1),
                                    PipelineParallelStrategy(),
                                    paper_model(2))
        assert ("CFG005", Severity.ERROR) in _fired(report)
        assert {f.code for f in report.findings} == {"CFG005", "CFG040"}

    @pytest.mark.parametrize("code, severity, strategy", [
        ("CFG011", Severity.ERROR,
         lambda: _doubling(ZeroStrategy, "parameters")(ZeroStage.OPTIMIZER)),
        ("CFG012", Severity.ERROR,
         lambda: _doubling(ZeroStrategy, "gradients")(ZeroStage.OPTIMIZER)),
        ("CFG013", Severity.ERROR,
         lambda: _doubling(DdpStrategy, "parameters")()),
        ("CFG019", Severity.INFO, Unmodeled),
    ], ids=["CFG011", "CFG012", "CFG013", "CFG019"])
    def test_zero_partition_accounting(self, code, severity, strategy):
        report = analyze_run_config(preset_cluster(1), strategy(),
                                    model_for_billions(0.7))
        assert (code, severity) in _fired(report)
        assert {f.code for f in report.findings} == {code}

    @pytest.mark.parametrize("code, strategy, size, placement, wired, also", [
        # Placements E-G ask for more scratch drives than the stock
        # node has, so no swap volume can be built (CFG021 says why).
        ("CFG033", "zero3_opt_nvme", 1.4, "E", False, {"CFG021"}),
        ("CFG033", "zero3_opt_nvme", 1.4, "F", False, {"CFG021"}),
        ("CFG033", "zero3_opt_nvme", 1.4, "G", False, {"CFG021"}),
        # On its own placement's node, 1000 B parameters overflow HBM,
        # DRAM and the swap drives alike.
        ("CFG034", "zero3_opt_nvme_param_nvme", 1000, "B", True,
         {"CFG030", "CFG031"}),
    ], ids=["CFG033-E", "CFG033-F", "CFG033-G", "CFG034"])
    def test_memory_capacity(self, code, strategy, size, placement, wired,
                             also):
        placement = PLACEMENTS[placement]
        cluster = preset_cluster(1, placement if wired else None)
        report = analyze_run_config(cluster, make_strategy(strategy),
                                    model_for_billions(size),
                                    placement=placement)
        assert (code, Severity.ERROR) in _fired(report)
        assert {f.code for f in report.findings} == {code} | also

    @pytest.mark.parametrize("code, strategy, layers", [
        # Five layers split unevenly over four Megatron stages.
        ("CFG040", MegatronStrategy, 5),
        # Two micro-batches cannot keep four stages busy.
        ("CFG041", lambda: PipelineParallelStrategy(micro_batches=2), 8),
    ], ids=["CFG040", "CFG041"])
    def test_pipeline_divisibility(self, code, strategy, layers):
        report = analyze_run_config(preset_cluster(1), strategy(),
                                    paper_model(layers))
        assert (code, Severity.WARNING) in _fired(report)
        assert {f.code for f in report.findings} == {code}


class TestTopologyLints:
    def test_presets_are_clean(self):
        for cluster in (single_node_cluster(), dual_node_cluster()):
            report = run_passes(AnalysisContext(cluster=cluster),
                                ("topology",))
            assert report.ok, [f.message for f in report.errors]

    def test_absurd_bandwidth_flagged(self):
        cluster = single_node_cluster()
        link = cluster.topology.links_of_class(LinkClass.NVLINK)[0]
        link.spec = dataclasses.replace(
            link.spec, bandwidth_per_direction=1e14)
        report = run_passes(AnalysisContext(cluster=cluster), ("topology",))
        assert "TOPO011" in [f.code for f in report.errors]

    def test_off_table_bandwidth_warns(self):
        cluster = single_node_cluster()
        link = cluster.topology.links_of_class(LinkClass.NVLINK)[0]
        link.spec = dataclasses.replace(
            link.spec, bandwidth_per_direction=link.spec.
            bandwidth_per_direction / 10)
        report = run_passes(AnalysisContext(cluster=cluster), ("topology",))
        assert "TOPO010" in [f.code for f in report.warnings]

    def test_unreachable_device_flagged(self):
        cluster = single_node_cluster()
        topology = cluster.topology
        # Cut every link to one NVMe drive.
        victim = cluster.nodes[0].nvme_drives[0].name
        topology._links = [  # type: ignore[attr-defined]
            link for link in topology._links
            if victim not in (link.endpoint_a, link.endpoint_b)
        ]
        report = run_passes(AnalysisContext(cluster=cluster), ("topology",))
        findings = [f for f in report.errors if f.code == "TOPO020"]
        assert findings and victim in findings[0].message

    def test_half_duplex_non_dram_flagged(self):
        cluster = single_node_cluster()
        link = cluster.topology.links_of_class(LinkClass.PCIE_GPU)[0]
        link.spec = dataclasses.replace(link.spec, duplex=False)
        report = run_passes(AnalysisContext(cluster=cluster), ("topology",))
        assert "TOPO001" in [f.code for f in report.errors]


def _stray_link(cluster, link_class, endpoint_a, endpoint_b):
    """Wire one extra ``link_class`` link between two existing devices."""
    topology = cluster.topology
    spec = topology.links_of_class(link_class)[0].spec
    topology.add_link(Link("stray", spec, endpoint_a, endpoint_b))


class TestPlantedTopologyCodes:
    """Each code plants the miswiring it guards, and it fires alone."""

    def test_link_symmetry(self):
        # TOPO002: Topology.add_link accepts a self-loop.
        cluster = preset_cluster(1)
        gpu = cluster.nodes[0].gpus[0].name
        _stray_link(cluster, LinkClass.NVLINK, gpu, gpu)
        report = run_passes(AnalysisContext(cluster=cluster), ("topology",))
        assert _fired(report) == {("TOPO002", Severity.ERROR)}

    @pytest.mark.parametrize("code, link_class, ends", [
        # A PCIe-GPU link from a socket-0 GPU to the socket-1 CPU.
        ("TOPO030", LinkClass.PCIE_GPU,
         lambda nodes: (nodes[0].gpus[0], nodes[0].cpus[1])),
        # An xGMI link between the CPUs of two nodes.
        ("TOPO031", LinkClass.XGMI,
         lambda nodes: (nodes[0].cpus[0], nodes[1].cpus[0])),
        # An NVLink between GPUs of two nodes.
        ("TOPO032", LinkClass.NVLINK,
         lambda nodes: (nodes[0].gpus[0], nodes[1].gpus[0])),
    ], ids=["TOPO030", "TOPO031", "TOPO032"])
    def test_numa_affinity(self, code, link_class, ends):
        cluster = preset_cluster(2)
        a, b = ends(cluster.nodes)
        _stray_link(cluster, link_class, a.name, b.name)
        report = run_passes(AnalysisContext(cluster=cluster), ("topology",))
        assert _fired(report) == {(code, Severity.ERROR)}


# ---------------------------------------------------------------------------
# DES liveness diagnostics
# ---------------------------------------------------------------------------

class TestLiveness:
    def test_deadlocked_process_is_named(self):
        engine = Engine()
        stuck = engine.event()  # nobody ever triggers this

        def victim():
            yield stuck

        engine.process(victim(), name="optimizer-drain")
        engine.run()
        findings = diagnose(engine)
        assert [f.subject for f in findings] == ["optimizer-drain"]
        assert "SimEvent" in findings[0].message
        with pytest.raises(SimulationError, match="optimizer-drain"):
            check_liveness(engine)

    def test_all_of_deadlock_reports_pending_children(self):
        engine = Engine()
        never = engine.event()

        def victim():
            yield engine.all_of([engine.timeout(1.0), never])

        engine.process(victim(), name="barrier")
        engine.run()
        findings = diagnose(engine)
        assert len(findings) == 1
        assert "AllOf" in findings[0].message
        assert "1/2 children pending" in findings[0].message

    def test_transitive_wait_names_both_processes(self):
        engine = Engine()
        never = engine.event()

        def inner():
            yield never

        def outer():
            yield engine.process(inner(), name="inner")

        engine.process(outer(), name="outer")
        engine.run()
        stalled = {f.subject for f in diagnose(engine)}
        assert stalled == {"inner", "outer"}

    def test_any_of_race_does_not_false_positive(self):
        # The AnyOf loser is never triggered, but its waiter already won
        # the race — a healthy run must produce no findings.
        engine = Engine()
        slow = engine.timeout(100.0)

        def racer():
            yield engine.any_of([engine.timeout(1.0), slow])

        engine.process(racer(), name="racer")
        engine.run(until=5.0)
        assert not slow.callbacks  # AnyOf detached itself from the loser
        assert diagnose(engine) == []

    def test_undrained_engine_yields_no_findings(self):
        engine = Engine()

        def worker():
            yield engine.timeout(10.0)

        engine.process(worker(), name="worker")
        engine.run(until=1.0)
        assert engine.peek() is not None
        assert diagnose(engine) == []

    def test_healthy_training_run_passes_liveness(self):
        cluster = single_node_cluster()
        run_training(cluster, zero2(), model_for_billions(0.7), iterations=2)


# ---------------------------------------------------------------------------
# Unit-vocabulary lints (DIM010/DIM011, formerly SRC001/SRC002)
# ---------------------------------------------------------------------------

class TestDimVocabulary:
    def _lint(self, tmp_path, source, name="mod.py"):
        (tmp_path / name).write_text(textwrap.dedent(source))
        return get_pass("dim-vocabulary").run(
            AnalysisContext(source_root=tmp_path))

    def test_magic_decimal_constant_flagged(self, tmp_path):
        findings = self._lint(tmp_path, "CAPACITY = 40 * 1e9\n")
        assert [f.code for f in findings] == ["DIM010"]
        assert "GB" in findings[0].message
        assert findings[0].location == "mod.py:1"

    def test_magic_pow2_constant_flagged_once(self, tmp_path):
        findings = self._lint(tmp_path, "CHUNK = 2**30\n")
        assert [f.code for f in findings] == ["DIM010"]
        assert "GIB" in findings[0].message

    def test_units_module_is_exempt(self, tmp_path):
        findings = self._lint(tmp_path, "GB = 1e9\n", name="units.py")
        assert findings == []

    def test_time_equality_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            def check(start_time, end_time):
                return start_time == end_time
            """)
        assert [f.code for f in findings] == ["DIM011"]

    def test_endpoint_names_are_not_times(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            def same(link):
                return link.endpoint_a == link.endpoint_b
            """)
        assert findings == []

    def test_zero_comparison_tolerated(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            def idle(busy_time):
                return busy_time == 0
            """)
        assert findings == []

    def test_syntax_error_skipped_not_raised(self, tmp_path):
        findings = self._lint(tmp_path, "def broken(:\n")
        assert findings == []  # unit-hygiene owns the SRC000 report


# ---------------------------------------------------------------------------
# Source-hygiene lint
# ---------------------------------------------------------------------------

class TestSourceLints:
    def _lint(self, tmp_path, source, name="mod.py"):
        (tmp_path / name).write_text(textwrap.dedent(source))
        return get_pass("source-hygiene").run(
            AnalysisContext(source_root=tmp_path))

    def test_process_yielding_constant_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            def worker(engine):
                yield engine.timeout(1.0)
                yield 5
            """)
        assert [f.code for f in findings] == ["SRC003"]
        assert findings[0].severity is Severity.ERROR
        assert "worker" in findings[0].message

    def test_plain_generator_not_a_process(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            def numbers():
                yield 1
                yield 2
            """)
        assert findings == []

    def test_syntax_error_reported_not_raised(self, tmp_path):
        findings = self._lint(tmp_path, "def broken(:\n")
        assert [f.code for f in findings] == ["SRC000"]

    def test_own_tree_is_clean_modulo_baseline(self):
        report = analyze_source()
        assert report.ok, [f.message for f in report.errors]
        baseline = load_baseline(
            Path(__file__).parent.parent / "analysis-baseline.json")
        filtered, stale = apply_baseline(report, baseline)
        assert stale == [], [e.to_dict() for e in stale]
        assert filtered.findings == [], [
            f"{f.location}: {f.message}" for f in filtered.findings
        ]


# ---------------------------------------------------------------------------
# The shared source scan: package scopes, one parse per file, bad bytes
# ---------------------------------------------------------------------------

_WALL_CLOCK_MODULE = "import time\n\ndef stamp():\n    return time.time()\n"


class TestSourceScan:
    def test_passes_read_only_their_packages(self, tmp_path):
        # det-wall-clock reads the simulation packages, so the same read
        # outside them (tools/) is not its business.
        for package in ("sim", "tools"):
            (tmp_path / package).mkdir()
            (tmp_path / package / "clock.py").write_text(_WALL_CLOCK_MODULE)
        report = analyze_source(tmp_path)
        assert [f.location for f in report.findings
                if f.code == "DET020"] == ["sim/clock.py:4"]

    def test_each_file_is_parsed_once_per_context(self, tmp_path,
                                                  monkeypatch):
        import repro.analysis.context as context_module

        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "clock.py").write_text(_WALL_CLOCK_MODULE)
        (tmp_path / "top.py").write_text("X = 1\n")
        parsed = []
        real_parse = context_module.parse
        monkeypatch.setattr(context_module, "parse",
                            lambda path: parsed.append(path)
                            or real_parse(path))
        report = run_passes(AnalysisContext(source_root=tmp_path),
                            ("source", "dims", "lifecycle"))
        assert "DET020" in {f.code for f in report.findings}
        assert sorted(p.name for p in parsed) == ["clock.py", "top.py"]

    def test_file_that_is_not_utf8_is_reported_once(self, tmp_path):
        (tmp_path / "latin.py").write_bytes(b'NAME = "caf\xe9"\n')
        (tmp_path / "ok.py").write_text("X = 1\n")
        report = run_passes(AnalysisContext(source_root=tmp_path),
                            ("source", "dims", "lifecycle"))
        assert [(f.code, f.location) for f in report.findings] == [
            ("SRC000", "latin.py:1")]
        assert "utf-8" in report.findings[0].message


# ---------------------------------------------------------------------------
# run_training preflight hook
# ---------------------------------------------------------------------------

class TestPreflightHook:
    def _broken_strategy(self):
        class BrokenDegrees(DdpStrategy):
            def data_parallel_degree(self, ctx):
                return 3

        return BrokenDegrees()

    def test_preflight_rejects_broken_config(self):
        with pytest.raises(ConfigurationError,
                           match="pre-run static analysis failed"):
            run_training(single_node_cluster(), self._broken_strategy(),
                         model_for_billions(0.7), iterations=2)

    def test_preflight_can_be_disabled(self):
        # With the hook off, the same config gets past the analysis gate
        # and fails much later, in the kernel-timing arithmetic.
        with pytest.raises(ConfigurationError,
                           match=r"dp \(3\) x mp \(1\)"):
            run_training(single_node_cluster(), self._broken_strategy(),
                         model_for_billions(0.7), iterations=2,
                         preflight=False)

    def test_preflight_does_not_predict_oom(self):
        # Too-large models must still surface as OutOfMemoryError (the
        # search's backoff signal), not as an analysis failure.
        from repro.errors import OutOfMemoryError
        with pytest.raises(OutOfMemoryError):
            run_training(single_node_cluster(), zero3(),
                         model_for_billions(60), iterations=2)
