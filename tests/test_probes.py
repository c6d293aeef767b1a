"""RunProbes: the one place a run's engine, flow network and opt-in
instruments are built, attached and detached."""

import pytest

from repro.hardware import single_node_cluster
from repro.sim.engine import ReversedTies, SeededTies
from repro.sim.leaksan import LeakReport
from repro.sim.probes import RunProbes, named_tie_order
from repro.units import GB


def test_tie_order_names():
    assert named_tie_order("fifo", 3) is None
    assert isinstance(named_tie_order("reversed", 3), ReversedTies)
    seeded = named_tie_order("seeded", 3)
    assert isinstance(seeded, SeededTies) and seeded.seed == 3


def test_no_instruments_attach_nothing():
    cluster = single_node_cluster()
    with RunProbes(cluster) as probes:
        assert probes.engine.sanitizer is None
        assert probes.network.observers == ()
        assert probes.close() == (None, None)


def test_every_hook_is_removed_on_error():
    cluster = single_node_cluster()
    with pytest.raises(RuntimeError):
        with RunProbes(cluster, sanitize=True, trace=True,
                       leak_check=True) as probes:
            assert probes.engine.sanitizer is probes.sanitizer
            assert probes.network.observers == (probes.recorder,)
            raise RuntimeError("run failed")
    assert probes.engine.sanitizer is None
    assert probes.network.observers == ()


def test_close_returns_both_reports_and_detaches():
    cluster = single_node_cluster()
    with RunProbes(cluster, sanitize=True, trace=True,
                   leak_check=True) as probes:
        sanitized, leaks = probes.close()
        assert sanitized is probes.sanitizer.report
        assert isinstance(leaks, LeakReport) and leaks.clean
        assert probes.network.observers == ()


def test_recorder_drains_the_networks_active_flows():
    cluster = single_node_cluster()
    with RunProbes(cluster, trace=True) as probes:
        route = cluster.topology.route("node0/gpu0", "node0/dram1")
        probes.network.transfer(route, 1e3, label="done")
        probes.network.transfer(route, 100 * GB, label="stuck")
        probes.engine.run(until=0.01)
        probes.recorder.drain_open_flows(probes.engine.now)
    assert [(s.flow_id, s.label, s.completed)
            for s in probes.recorder.flows] == [
        (0, "done", True), (1, "stuck", False)]
