"""Fault-injection subsystem: spec parsing, resolution, injection,
end-to-end determinism."""

import json

import pytest

from repro.analysis import AnalysisContext, run_passes
from repro.core.runner import run_training
from repro.core.search import model_for_billions
from repro.errors import FaultPlanError
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    parse_fault_spec,
    parse_time,
    resolve_target,
)
from repro.hardware import single_node_cluster
from repro.parallel import zero2
from repro.sim.engine import Engine
from repro.sim.flows import FlowNetwork


# --- time and spec parsing ----------------------------------------------------
class TestParseTime:
    @pytest.mark.parametrize("text,expected", [
        ("2ms", 2e-3),
        ("1.5s", 1.5),
        ("300us", 3e-4),
        ("5ns", 5e-9),
        ("0.25", 0.25),
        ("1e-3", 1e-3),
    ])
    def test_units(self, text, expected):
        assert parse_time(text) == pytest.approx(expected)

    @pytest.mark.parametrize("text", ["", "fast", "2 minutes", "3kg", "-1s"])
    def test_rejects_garbage(self, text):
        with pytest.raises(FaultPlanError):
            parse_time(text)


class TestParseFaultSpec:
    def test_acceptance_spec(self):
        event = parse_fault_spec("node0.nic0:down@t=2ms,dur=1ms")
        assert event.target == "node0/nic0"
        assert event.kind is FaultKind.LINK_DOWN
        assert event.start == pytest.approx(2e-3)
        assert event.duration == pytest.approx(1e-3)
        assert event.magnitude == 1.0

    def test_degrade_with_magnitude(self):
        event = parse_fault_spec("switch0:degrade@t=0.1,dur=1s,mag=0.5")
        assert event.kind is FaultKind.LINK_DEGRADE
        assert event.magnitude == 0.5

    def test_flap_with_period(self):
        event = parse_fault_spec("switch0:flap@t=10ms,dur=200ms,period=40ms")
        assert event.kind is FaultKind.LINK_FLAP
        assert event.period == pytest.approx(40e-3)

    @pytest.mark.parametrize("alias,kind", [
        ("slow", FaultKind.GPU_STRAGGLER),
        ("straggler", FaultKind.GPU_STRAGGLER),
        ("nvme", FaultKind.NVME_SLOWDOWN),
        ("nvme_slow", FaultKind.NVME_SLOWDOWN),
    ])
    def test_kind_aliases(self, alias, kind):
        assert parse_fault_spec(f"rank0:{alias}@t=0,dur=1").kind is kind

    @pytest.mark.parametrize("spec", [
        "node0/nic0:down",                     # no @fields
        "node0/nic0@t=0,dur=1",                # no :kind
        "node0/nic0:explode@t=0,dur=1",        # unknown kind
        "node0/nic0:down@t=0,dur=1,color=red", # unknown field
        "node0/nic0:down@t=0",                 # missing dur
        "node0/nic0:down@dur=1",               # missing t
        "node0/nic0:down@t=0,dur=",            # empty value
        "node0/nic0:down@t=0,dur=1,mag=big",   # bad magnitude
    ])
    def test_rejects_malformed(self, spec):
        with pytest.raises(FaultPlanError):
            parse_fault_spec(spec)


# --- plans --------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_span_and_len(self):
        plan = FaultPlan.parse(
            ["node0/nic0:down@t=2ms,dur=1ms", "rank0:slow@t=0,dur=5ms"],
            seed=7,
        )
        assert len(plan) == 2
        assert plan.span == pytest.approx(5e-3)
        assert plan.seed == 7

    def test_horizon_must_be_positive(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(horizon=0.0)

    def test_noop_events_are_dropped(self):
        plan = FaultPlan.parse(["node0/xgmi:degrade@t=0,dur=1,mag=0"])
        assert plan.materialize() == []

    def test_flap_expansion_is_seed_deterministic(self):
        specs = ["switch0:flap@t=0,dur=1s,period=100ms"]
        first = FaultPlan.parse(specs, seed=42).materialize()
        second = FaultPlan.parse(specs, seed=42).materialize()
        other = FaultPlan.parse(specs, seed=43).materialize()
        assert first == second
        assert first != other

    def test_flap_windows_stay_inside_envelope(self):
        plan = FaultPlan.parse(["switch0:flap@t=10ms,dur=200ms,period=40ms"],
                               seed=3)
        windows = plan.materialize()
        assert windows
        for window in windows:
            assert window.kind is FaultKind.LINK_DOWN
            assert window.start >= 10e-3 - 1e-12
            assert window.end <= 210e-3 + 1e-12

    def test_materialized_events_are_sorted(self):
        plan = FaultPlan.parse([
            "rank0:slow@t=5ms,dur=1ms",
            "node0/xgmi:degrade@t=1ms,dur=1ms,mag=0.5",
        ])
        starts = [event.start for event in plan.materialize()]
        assert starts == sorted(starts)

    def test_to_dict_round_trips_fields(self):
        plan = FaultPlan.parse(["node0.nic0:down@t=2ms,dur=1ms"], seed=7,
                               horizon=1.0)
        payload = plan.to_dict()
        assert payload["seed"] == 7
        assert payload["horizon"] == 1.0
        assert payload["events"][0]["target"] == "node0/nic0"


# --- target resolution --------------------------------------------------------
class TestResolveTarget:
    @pytest.fixture()
    def cluster(self):
        return single_node_cluster()

    def _event(self, target, kind):
        return FaultEvent(target=target, kind=kind, start=0.0, duration=1.0)

    def test_link_by_name(self, cluster):
        resolved = resolve_target(
            cluster, self._event("node0/xgmi", FaultKind.LINK_DOWN))
        assert [link.name for link in resolved.links] == ["node0/xgmi"]

    def test_device_blast_radius(self, cluster):
        resolved = resolve_target(
            cluster, self._event("node0/gpu0", FaultKind.LINK_DEGRADE))
        assert len(resolved.links) > 1
        for link in resolved.links:
            assert "node0/" in link.name

    def test_straggler_by_rank(self, cluster):
        resolved = resolve_target(
            cluster, self._event("rank2", FaultKind.GPU_STRAGGLER))
        assert resolved.rank == 2

    def test_straggler_by_gpu_name(self, cluster):
        name = cluster.gpu(1).name
        resolved = resolve_target(
            cluster, self._event(name, FaultKind.GPU_STRAGGLER))
        assert resolved.rank == 1

    def test_nvme_by_drive_name(self, cluster):
        name = cluster.nodes[0].nvme_drives[0].name
        resolved = resolve_target(
            cluster, self._event(name, FaultKind.NVME_SLOWDOWN))
        assert resolved.drive is cluster.nodes[0].nvme_drives[0]

    @pytest.mark.parametrize("target,kind", [
        ("node9/nic0", FaultKind.LINK_DOWN),
        ("rank99", FaultKind.GPU_STRAGGLER),
        ("node0/xgmi", FaultKind.GPU_STRAGGLER),
        ("node0/gpu0", FaultKind.NVME_SLOWDOWN),
    ])
    def test_bad_targets_raise(self, cluster, target, kind):
        with pytest.raises(FaultPlanError):
            resolve_target(cluster, self._event(target, kind))

    def _fault_findings(self, cluster, plan):
        report = run_passes(
            AnalysisContext(cluster=cluster, fault_plan=plan), ("faults",))
        return sorted((f.code, f.subject) for f in report.findings)

    def test_fault_plan_pass_reports_instead_of_raising(self, cluster):
        plan = FaultPlan.parse(
            ["node9/nic0:down@t=0,dur=1ms", "rank0:slow@t=0,dur=2s"],
            horizon=1.0,
        )
        # bad target + horizon overrun
        assert self._fault_findings(cluster, plan) == [
            ("FLT001", "node9/nic0"), ("FLT011", "rank0")]

    def test_fault_plan_pass_warns_on_noop_and_long_outage(self, cluster):
        plan = FaultPlan.parse([
            "node0/xgmi:degrade@t=0,dur=1,mag=0",
            "node0/xgmi:down@t=0,dur=1",
        ])
        assert self._fault_findings(cluster, plan) == [
            ("FLT012", "node0/xgmi"), ("FLT013", "node0/xgmi")]


# --- injector state machine ---------------------------------------------------
class TestInjector:
    def _injector(self, cluster, specs, seed=0):
        engine = Engine()
        network = FlowNetwork(engine)
        plan = FaultPlan.parse(specs, seed=seed)
        return engine, FaultInjector(plan, cluster, engine, network)

    def test_overlapping_link_faults_stack_multiplicatively(self):
        cluster = single_node_cluster()
        engine, _ = self._injector(cluster, [
            "node0/xgmi:degrade@t=1,dur=2,mag=0.5",
            "node0/xgmi:degrade@t=2,dur=2,mag=0.5",
        ])
        link = next(l for l in cluster.topology.links
                    if l.name == "node0/xgmi")
        observed = {}
        for probe_at in (1.5, 2.5, 3.5, 4.5):
            engine.schedule_at(
                probe_at,
                lambda t=probe_at: observed.__setitem__(
                    t, link.capacity_fraction),
            )
        engine.run()
        assert observed[1.5] == pytest.approx(0.5)
        assert observed[2.5] == pytest.approx(0.25)   # both active
        assert observed[3.5] == pytest.approx(0.5)    # first reverted
        assert observed[4.5] == pytest.approx(1.0)    # fully restored

    def test_straggler_factors_stack_and_revert(self):
        cluster = single_node_cluster()
        engine, injector = self._injector(cluster, [
            "rank0:slow@t=1,dur=2,mag=0.5",
            "rank0:slow@t=2,dur=2,mag=0.5",
        ])
        observed = {}
        for probe_at in (0.5, 1.5, 2.5, 4.5):
            engine.schedule_at(
                probe_at,
                lambda t=probe_at: observed.__setitem__(
                    t, injector.compute_multiplier(0)),
            )
        engine.run()
        assert observed[0.5] == pytest.approx(1.0)
        assert observed[1.5] == pytest.approx(1.5)
        assert observed[2.5] == pytest.approx(2.25)
        assert observed[4.5] == pytest.approx(1.0)

    def test_down_pins_capacity_to_zero(self):
        cluster = single_node_cluster()
        engine, _ = self._injector(
            cluster, ["node0/xgmi:down@t=1,dur=1,mag=0.25"])
        link = next(l for l in cluster.topology.links
                    if l.name == "node0/xgmi")
        observed = {}
        engine.schedule_at(
            1.5, lambda: observed.__setitem__("dark", link.capacity_fraction))
        engine.run()
        assert observed["dark"] == 0.0
        assert link.capacity_fraction == 1.0

    def test_empty_plan_registers_no_start_hook(self):
        cluster = single_node_cluster()
        _, injector = self._injector(
            cluster, ["node0/xgmi:degrade@t=0,dur=1,mag=0"])
        assert not injector.has_faults

    def test_bad_plan_fails_before_the_run(self):
        cluster = single_node_cluster()
        with pytest.raises(FaultPlanError):
            self._injector(cluster, ["node9/nic0:down@t=0,dur=1ms"])


# --- end-to-end determinism ---------------------------------------------------
def _run_payload(specs=None, seed=0):
    """One full run reduced to a JSON string: byte-equality == identical."""
    cluster = single_node_cluster()
    plan = FaultPlan.parse(specs, seed=seed) if specs is not None else None
    metrics = run_training(cluster, zero2(), model_for_billions(0.7),
                           iterations=2, fault_plan=plan)
    payload = {
        "iteration_times": metrics.execution.iteration_times,
        "total_time": metrics.execution.total_time,
        "tflops": metrics.throughput.tflops,
        "ledgers": {link.name: link.ledger.total_bytes
                    for link in cluster.topology.links},
    }
    return json.dumps(payload, sort_keys=True)


FAULTED_SPECS = [
    "node0/gpu0:flap@t=50ms,dur=200ms,period=40ms,mag=0.8",
    "rank1:slow@t=0,dur=1s,mag=0.5",
]


class TestDeterminism:
    def test_seeded_faulted_runs_are_bit_identical(self):
        first = _run_payload(FAULTED_SPECS, seed=7)
        second = _run_payload(FAULTED_SPECS, seed=7)
        assert first == second

    def test_fault_free_runs_are_bit_identical(self):
        assert _run_payload() == _run_payload()

    def test_zero_magnitude_plan_matches_fault_free(self):
        zeroed = _run_payload(
            ["node0/gpu0:degrade@t=50ms,dur=200ms,mag=0",
             "rank1:slow@t=0,dur=1s,mag=0"],
        )
        assert zeroed == _run_payload()

    def test_faults_actually_change_the_run(self):
        assert _run_payload(FAULTED_SPECS, seed=7) != _run_payload()
