"""RunProbes: the one place a run's engine, flow network and opt-in
instruments are built, attached and detached."""

import pytest

from repro.hardware import single_node_cluster
from repro.sim.engine import ReversedTies, SeededTies
from repro.sim.probes import RunProbes, named_tie_order


def _pools(cluster):
    return [device.memory for device in cluster.topology.devices
            if device.memory is not None]


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
        assert all(pool.observer is None for pool in _pools(cluster))
        assert probes.close() == (None, None)


def test_every_hook_is_removed_on_error():
    cluster = single_node_cluster()
    with pytest.raises(RuntimeError):
        with RunProbes(cluster, sanitize=True, trace=True,
                       leak_check=True) as probes:
            assert probes.engine.sanitizer is probes.sanitizer
            assert probes.network.observers == (probes.recorder,
                                                probes.leaksan)
            assert all(pool.observer is probes.leaksan
                       for pool in _pools(cluster))
            raise RuntimeError("run failed")
    assert probes.engine.sanitizer is None
    assert probes.network.observers == ()
    assert all(pool.observer is None for pool in _pools(cluster))


def test_close_returns_both_reports_and_detaches():
    cluster = single_node_cluster()
    with RunProbes(cluster, sanitize=True, leak_check=True) as probes:
        sanitized, leaks = probes.close()
        assert sanitized is probes.sanitizer.report
        assert leaks is probes.leaksan.report and leaks.clean
        assert probes.network.observers == ()
        assert all(pool.observer is None for pool in _pools(cluster))
