"""Determinism subsystem: tie orders, schedule sanitizer, DET lints,
and the perturbation differ."""

import json
import textwrap

from repro.analysis import analyze_source
from repro.analysis.determinism import sanitizer_findings
from repro.analysis.determinism.differ import (
    diff_headline_runs,
    headline_fields,
    perturbation_diff,
    round_sig,
)
from repro.core.runner import run_training
from repro.core.search import model_for_billions
from repro.experiments.common import make_strategy
from repro.hardware import single_node_cluster
from repro.sim.engine import Engine, ReversedTies, SeededTies, TieOrder
from repro.sim.sanitizer import ScheduleSanitizer


# ---------------------------------------------------------------------------
# Tie-order policies on the bare engine
# ---------------------------------------------------------------------------

class TestTieOrders:
    def _order_with(self, tie_order, count=8):
        engine = Engine(tie_order=tie_order)
        seen = []
        for value in range(count):
            engine.schedule_at(1.0, seen.append, value)
        engine.run()
        return seen

    def test_fifo_preserves_insertion_order(self):
        assert self._order_with(TieOrder()) == list(range(8))

    def test_reversed_ties_reverse_same_timestamp_callbacks(self):
        assert self._order_with(ReversedTies()) == list(range(7, -1, -1))

    def test_seeded_ties_permute_reproducibly(self):
        first = self._order_with(SeededTies(7))
        again = self._order_with(SeededTies(7))
        assert first == again
        assert sorted(first) == list(range(8))
        assert first != list(range(8))  # actually permutes

    def test_different_seeds_differ(self):
        assert self._order_with(SeededTies(7)) != self._order_with(
            SeededTies(8))

    def test_timestamps_still_dominate_tie_keys(self):
        engine = Engine(tie_order=ReversedTies())
        seen = []
        engine.schedule_at(2.0, seen.append, "late")
        engine.schedule_at(1.0, seen.append, "early")
        engine.run()
        assert seen == ["early", "late"]


# ---------------------------------------------------------------------------
# Schedule sanitizer
# ---------------------------------------------------------------------------

class TestScheduleSanitizer:
    def test_tie_conflict_detected(self):
        engine = Engine()
        sanitizer = ScheduleSanitizer(engine)

        def toucher():
            engine.note_touch("ledger:test-link")

        engine.schedule_at(1.0, toucher)
        engine.schedule_at(1.0, toucher)
        engine.schedule_at(2.0, toucher)  # alone at its stamp: not a tie
        engine.run()
        report = sanitizer.finalize()
        assert report.events_observed == 3
        assert report.tie_groups == 1
        assert report.events_in_ties == 2
        assert report.conflict_groups == 1
        assert report.conflicts[0].resources == ["ledger:test-link"]
        assert report.conflicts[0].group_size == 2
        assert not report.clean

    def test_tied_callbacks_on_distinct_resources_are_not_conflicts(self):
        engine = Engine()
        sanitizer = ScheduleSanitizer(engine)
        engine.schedule_at(1.0, lambda: engine.note_touch("a"))
        engine.schedule_at(1.0, lambda: engine.note_touch("b"))
        engine.run()
        report = sanitizer.finalize()
        assert report.tie_groups == 1
        assert report.conflict_groups == 0
        assert report.clean

    def test_note_touch_without_sanitizer_is_a_noop(self):
        engine = Engine()
        engine.schedule_at(1.0, lambda: engine.note_touch("x"))
        engine.run()  # must not raise

    def test_capacity_audit_flags_double_booked_link(self):
        cluster = single_node_cluster()
        link = cluster.topology.links[0]
        ceiling = link.max_capacity_over(0.0, 1.0)
        link.ledger.record(0.0, 1.0, ceiling * 2.0)
        report = ScheduleSanitizer(Engine()).finalize(cluster)
        assert report.capacity_violations
        assert link.name in report.capacity_violations[0]
        codes = [f.code for f in sanitizer_findings(report)]
        assert "DET110" in codes

    def test_in_budget_ledger_is_clean(self):
        cluster = single_node_cluster()
        link = cluster.topology.links[0]
        link.ledger.record(0.0, 1.0, link.max_capacity_over(0.0, 1.0) * 0.5)
        report = ScheduleSanitizer(Engine()).finalize(cluster)
        assert report.capacity_violations == []

    def test_report_round_trips_through_json(self):
        engine = Engine()
        sanitizer = ScheduleSanitizer(engine)
        engine.schedule_at(1.0, lambda: engine.note_touch("r"))
        engine.schedule_at(1.0, lambda: engine.note_touch("r"))
        engine.run()
        payload = json.loads(json.dumps(sanitizer.finalize().to_dict()))
        assert payload["conflict_groups"] == 1
        assert payload["clean"] is False

    def test_sanitized_training_run_attaches_report(self):
        cluster = single_node_cluster()
        metrics = run_training(cluster, make_strategy("ddp"),
                               model_for_billions(0.7), iterations=2,
                               sanitize=True)
        report = metrics.sanitizer
        assert report is not None
        assert report.events_observed > 0
        assert report.capacity_violations == []

    def test_unsanitized_run_has_no_report(self):
        cluster = single_node_cluster()
        metrics = run_training(cluster, make_strategy("ddp"),
                               model_for_billions(0.7), iterations=2)
        assert metrics.sanitizer is None


# ---------------------------------------------------------------------------
# DET0xx static passes on fixture trees
# ---------------------------------------------------------------------------

class TestDetLints:
    def _det_findings(self, tmp_path, source, name="mod.py"):
        (tmp_path / name).write_text(textwrap.dedent(source))
        report = analyze_source(tmp_path)
        return [f for f in report.findings if f.code.startswith("DET")]

    def test_set_iteration_with_accumulation_flagged(self, tmp_path):
        findings = self._det_findings(
            tmp_path,
            """
            def drain(flows, rates):
                pending = set(flows)
                for flow in pending:
                    rates[flow] += 1.0
            """)
        assert [f.code for f in findings] == ["DET001"]
        assert "'pending'" in findings[0].message
        assert findings[0].location == "mod.py:4"

    def test_sum_over_set_generator_flagged(self, tmp_path):
        findings = self._det_findings(
            tmp_path,
            """
            residuals = {0.125, 0.25}
            TOTAL = sum(value for value in residuals)
            """)
        assert [f.code for f in findings] == ["DET001"]
        assert "sum()" in findings[0].message

    def test_scheduling_from_set_iteration_flagged(self, tmp_path):
        findings = self._det_findings(
            tmp_path,
            """
            def arm(engine, callback):
                targets = {1.0, 2.0}
                for when in targets:
                    engine.schedule_at(when, callback)
            """)
        assert [f.code for f in findings] == ["DET001"]
        assert "schedule_at" in findings[0].message

    def test_list_iteration_is_clean(self, tmp_path):
        findings = self._det_findings(
            tmp_path,
            """
            def drain(flows, rates):
                for flow in sorted(flows):
                    rates[flow] += 1.0
            """)
        assert findings == []

    def test_set_pop_flagged(self, tmp_path):
        findings = self._det_findings(
            tmp_path,
            """
            ready = set()

            def next_item():
                return ready.pop()
            """)
        assert [f.code for f in findings] == ["DET002"]

    def test_dict_pop_with_key_is_clean(self, tmp_path):
        findings = self._det_findings(
            tmp_path,
            """
            table = {}

            def take(key):
                return table.pop(key)
            """)
        assert findings == []

    def test_unseeded_module_random_flagged_as_error(self, tmp_path):
        findings = self._det_findings(
            tmp_path,
            """
            import random

            def jitter():
                return random.random()
            """)
        assert [f.code for f in findings] == ["DET010"]
        assert findings[0].severity.name == "ERROR"

    def test_module_level_seed_suppresses_det010(self, tmp_path):
        findings = self._det_findings(
            tmp_path,
            """
            import random

            random.seed(7)

            def jitter():
                return random.random()
            """)
        assert findings == []

    def test_unseeded_random_instance_warned(self, tmp_path):
        findings = self._det_findings(
            tmp_path,
            """
            import random

            RNG = random.Random()
            """)
        assert [f.code for f in findings] == ["DET011"]

    def test_seeded_random_instance_is_clean(self, tmp_path):
        findings = self._det_findings(
            tmp_path,
            """
            import random

            RNG = random.Random(1234)
            """)
        assert findings == []

    def test_wall_clock_reads_flagged(self, tmp_path):
        findings = self._det_findings(
            tmp_path,
            """
            import time
            from datetime import datetime

            def stamp_pair():
                return time.time(), datetime.now()
            """)
        codes = [f.code for f in findings]
        assert codes == ["DET020", "DET020"]

    def test_id_ordering_flagged(self, tmp_path):
        findings = self._det_findings(
            tmp_path,
            """
            def settle(events):
                return sorted(events, key=id)

            def first(events):
                return min(events, key=lambda e: (id(e), 0))
            """)
        assert [f.code for f in findings] == ["DET030", "DET030"]

    def test_stable_sort_key_is_clean(self, tmp_path):
        findings = self._det_findings(
            tmp_path,
            """
            def settle(events):
                return sorted(events, key=lambda e: e.seq)
            """)
        assert findings == []

    def test_mutable_default_argument_flagged(self, tmp_path):
        findings = self._det_findings(
            tmp_path,
            """
            def fire(callbacks=[], *, extras={}):
                callbacks.extend(extras)
            """)
        assert [f.code for f in findings] == ["DET040", "DET040"]

    def test_clean_simulation_module_passes_every_det_lint(self, tmp_path):
        findings = self._det_findings(
            tmp_path,
            """
            import random


            class Clock:
                def __init__(self, engine, seed):
                    self.engine = engine
                    self.rng = random.Random(seed)

                def drain(self, flows, rates):
                    for flow in sorted(flows, key=lambda f: f.seq):
                        rates[flow] = self.engine.now
            """)
        assert findings == []

    def test_only_sim_packages_are_scanned(self, tmp_path):
        racy = "pending = set()\n\nfor item in pending:\n    item += 1\n"
        (tmp_path / "sim").mkdir()
        (tmp_path / "analysis").mkdir()
        (tmp_path / "sim" / "mod.py").write_text(racy)
        (tmp_path / "analysis" / "mod.py").write_text(racy)
        report = analyze_source(tmp_path)
        locations = [f.location for f in report.findings
                     if f.code == "DET001"]
        assert locations == ["sim/mod.py:3"]


# ---------------------------------------------------------------------------
# The planted race: one hazard caught by BOTH halves of the detector
# ---------------------------------------------------------------------------

#: A genuine set-iteration race: 0 and 8 collide in a small set's hash
#: table, so iteration order follows insertion order, and the nonlinear
#: fold makes that order observable.  The two ``add`` calls are tied at
#: t=1.0, so the tie order *is* the insertion order.
RACY_FIXTURE = '''\
shared = set()
total = 0.0


def add(value):
    shared.add(value)


def fold():
    global total
    for value in shared:
        total += total / 2.0 + value
'''


class TestPlantedRace:
    def test_static_pass_flags_the_planted_race(self, tmp_path):
        (tmp_path / "racy.py").write_text(RACY_FIXTURE)
        report = analyze_source(tmp_path)
        codes = [f.code for f in report.findings]
        assert "DET001" in codes

    def test_differ_confirms_the_planted_race(self):
        def run(order):
            engine = Engine(tie_order=order)
            namespace = {}
            exec(compile(RACY_FIXTURE, "racy_fixture.py", "exec"), namespace)
            engine.schedule_at(1.0, namespace["add"], 0)
            engine.schedule_at(1.0, namespace["add"], 8)
            engine.schedule_at(2.0, namespace["fold"])
            engine.run()
            return {"total": namespace["total"]}

        diffs, orders = diff_headline_runs(run, seed=11)
        assert orders == ["reversed", "seeded[11]"]
        assert diffs and all(d.field == "total" for d in diffs)
        assert diffs[0].baseline != diffs[0].perturbed

    def test_differ_refutes_an_order_invariant_fold(self):
        # The flows.py reference_rates shape: iterating a set but adding
        # the same delta to every member — order cannot matter, and the
        # differ must not cry wolf.
        def run(order):
            engine = Engine(tie_order=order)
            rates = {"a": 0.0, "b": 0.0}
            members = {"a", "b"}

            def bump():
                for member in members:
                    rates[member] += 1.5

            engine.schedule_at(1.0, bump)
            engine.schedule_at(1.0, bump)
            engine.run()
            return rates

        diffs, _ = diff_headline_runs(run, seed=11)
        assert diffs == []


# ---------------------------------------------------------------------------
# Perturbation differ on real training configurations
# ---------------------------------------------------------------------------

class TestPerturbationDiffer:
    def test_round_sig(self):
        assert round_sig(123.4567891, 6) == 123.457
        assert round_sig(0.0) == 0.0
        assert round_sig(1e-12) == 1e-12

    def test_headline_fields_cover_ledgers(self):
        cluster = single_node_cluster()
        metrics = run_training(cluster, make_strategy("ddp"),
                               model_for_billions(0.7), iterations=2)
        fields = headline_fields(metrics, cluster)
        assert "iteration_time_s" in fields
        assert "tflops" in fields
        assert any(key.startswith("ledger[") and key.endswith(".bytes")
                   for key in fields)

    def test_ddp_smoke_config_is_race_free(self):
        result = perturbation_diff("ddp", size_billions=0.7, nodes=2,
                                   iterations=2, seed=7)
        assert result.orders == ["reversed", "seeded[7]"]
        assert result.fields_compared > 10
        assert result.diffs == [], [d.to_dict() for d in result.diffs]
        assert not result.races_confirmed
        sanitizer = result.sanitizer
        assert sanitizer is not None
        assert sanitizer.capacity_violations == []
        report = result.report()
        assert report.ok  # suspects are warnings; no confirmed races
        assert "DET120" not in [f.code for f in report.findings]
        json.dumps(result.to_dict())  # artifact shape is serializable

    def test_three_nodes_diff_on_three_nodes(self, monkeypatch):
        from repro.analysis.determinism import differ

        compared = []

        def recording(metrics, cluster):
            fields = headline_fields(metrics, cluster)
            compared.append(fields)
            return fields

        monkeypatch.setattr(differ, "headline_fields", recording)
        result = perturbation_diff("ddp", size_billions=0.7, nodes=3,
                                   iterations=2)
        assert result.nodes == 3 and len(compared) == 3
        for fields in compared:
            assert any(key.startswith("ledger[node2/") for key in fields)
        assert result.diffs == []

    def test_confirmed_race_becomes_det120_error(self):
        result = perturbation_diff("ddp", size_billions=0.7, nodes=1,
                                   iterations=2, seed=7)
        from repro.analysis.determinism.differ import FieldDiff
        result.diffs.append(FieldDiff(
            field="tflops", baseline=1.0, perturbed=2.0, order="reversed"))
        report = result.report()
        assert not report.ok
        assert "DET120" in [f.code for f in report.errors]
