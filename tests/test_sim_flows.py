"""Fluid-flow network: sharing, caps, weights, and ledger accounting."""

import pytest

from repro.hardware import single_node_cluster
from repro.sim.engine import Engine
from repro.sim.flows import FlowNetwork


@pytest.fixture()
def cluster():
    c = single_node_cluster()
    c.reset()
    return c


def run_transfer(cluster, src, dst, num_bytes, count=1, **kwargs):
    engine = Engine()
    network = FlowNetwork(engine)
    route = cluster.topology.route(src, dst)
    times = []
    for _ in range(count):
        event = network.transfer(route, num_bytes, **kwargs)
        event.add_callback(lambda e: times.append(engine.now))
    engine.run()
    return times, network


class TestSingleFlow:
    def test_duration_matches_bandwidth(self, cluster):
        # GPU pair: 4 NVLinks x 25 GB/s x 0.9 = 90 GB/s.
        times, _ = run_transfer(cluster, "node0/gpu0", "node0/gpu1", 9e9)
        assert times[0] == pytest.approx(0.1, rel=1e-3)

    def test_zero_bytes_completes_after_latency(self, cluster):
        route = cluster.topology.route("node0/gpu0", "node0/gpu1")
        engine = Engine()
        network = FlowNetwork(engine)
        event = network.transfer(route, 0.0)
        engine.run()
        assert event.triggered
        assert engine.now == pytest.approx(route.latency())

    def test_loopback_is_instant(self, cluster):
        route = cluster.topology.route("node0/gpu0", "node0/gpu0")
        engine = Engine()
        network = FlowNetwork(engine)
        network.transfer(route, 5e9)
        engine.run()
        assert engine.now == pytest.approx(0.0)

    def test_cap_limits_rate(self, cluster):
        times, _ = run_transfer(cluster, "node0/gpu0", "node0/gpu1", 9e9,
                                cap=9e9)
        assert times[0] == pytest.approx(1.0, rel=1e-3)

    def test_weight_multiplier_scales_attained_rate(self, cluster):
        fast, _ = run_transfer(cluster, "node0/gpu0", "node0/gpu1", 9e9)
        slow, _ = run_transfer(cluster, "node0/gpu0", "node0/gpu1", 9e9,
                               weight_multiplier=3.0)
        assert slow[0] == pytest.approx(3 * fast[0], rel=1e-2)


class TestSharing:
    def test_two_flows_halve_rate(self, cluster):
        times, _ = run_transfer(cluster, "node0/gpu0", "node0/gpu1", 9e9,
                                count=2)
        assert times[-1] == pytest.approx(0.2, rel=1e-2)

    def test_aggregate_is_work_conserving(self, cluster):
        times, network = run_transfer(cluster, "node0/gpu0", "node0/gpu1",
                                      9e9, count=3)
        # 27 GB over a 90 GB/s pool: 0.3 s regardless of flow count.
        assert times[-1] == pytest.approx(0.3, rel=1e-2)

    def test_disjoint_routes_do_not_contend(self, cluster):
        engine = Engine()
        network = FlowNetwork(engine)
        r1 = cluster.topology.route("node0/gpu0", "node0/gpu1")
        r2 = cluster.topology.route("node0/gpu2", "node0/gpu3")
        done = []
        for route in (r1, r2):
            network.transfer(route, 9e9).add_callback(
                lambda e: done.append(engine.now))
        engine.run()
        assert done[-1] == pytest.approx(0.1, rel=1e-2)

    def test_weighted_flow_consumes_more_pool(self, cluster):
        """A weighted flow burns extra pool capacity, so a plain+heavy
        pair finishes later than two plain flows of the same size."""
        def pair_completion(heavy_weight):
            engine = Engine()
            network = FlowNetwork(engine)
            route = cluster.topology.route("node0/gpu0", "node0/gpu1")
            network.transfer(route, 9e9, label="plain")
            network.transfer(route, 9e9, weight_multiplier=heavy_weight,
                             label="second")
            return engine.run()

        assert pair_completion(2.0) > pair_completion(1.0) * 1.2

    def test_opposite_directions_full_duplex(self, cluster):
        engine = Engine()
        network = FlowNetwork(engine)
        fwd = cluster.topology.route("node0/gpu0", "node0/gpu1")
        rev = cluster.topology.route("node0/gpu1", "node0/gpu0")
        done = []
        network.transfer(fwd, 9e9).add_callback(lambda e: done.append(engine.now))
        network.transfer(rev, 9e9).add_callback(lambda e: done.append(engine.now))
        engine.run()
        # Full duplex: both finish as if alone.
        assert done[-1] == pytest.approx(0.1, rel=1e-2)

    def test_half_duplex_dram_shares_one_pool(self, cluster):
        engine = Engine()
        network = FlowNetwork(engine)
        to_dram = cluster.topology.route("node0/gpu0", "node0/dram0")
        from_dram = cluster.topology.route("node0/dram0", "node0/gpu0")
        done = []
        payload = 10e9
        network.transfer(to_dram, payload).add_callback(
            lambda e: done.append(engine.now))
        solo_time = None
        engine.run()
        solo_time = done[-1]
        done.clear()
        engine2 = Engine()
        network2 = FlowNetwork(engine2)
        cluster.reset()
        to_dram = cluster.topology.route("node0/gpu0", "node0/dram0")
        from_dram = cluster.topology.route("node0/dram0", "node0/gpu0")
        network2.transfer(to_dram, payload).add_callback(
            lambda e: done.append(engine2.now))
        network2.transfer(from_dram, payload).add_callback(
            lambda e: done.append(engine2.now))
        engine2.run()
        # DRAM is half duplex: concurrent opposite flows contend there
        # unless PCIe is the bottleneck; they must not finish faster.
        assert done[-1] >= solo_time


class TestLedgers:
    def test_bytes_recorded_on_every_link(self, cluster):
        run_transfer(cluster, "node0/gpu0", "node0/dram0", 5e9)
        route = cluster.topology.route("node0/gpu0", "node0/dram0")
        for link in route.links:
            assert link.ledger.total_bytes == pytest.approx(5e9)

    def test_settle_records_partial_progress(self, cluster):
        engine = Engine()
        network = FlowNetwork(engine)
        route = cluster.topology.route("node0/gpu0", "node0/gpu1")
        network.transfer(route, 900e9)  # 10 s at 90 GB/s
        engine.run(until=1.0)
        network.settle()
        moved = route.links[0].ledger.total_bytes
        assert moved == pytest.approx(90e9, rel=0.05)

    def test_completion_counters(self, cluster):
        _, network = run_transfer(cluster, "node0/gpu0", "node0/gpu1", 1e9,
                                  count=3)
        assert network.completed_flows == 3
        assert network.total_bytes_moved == pytest.approx(3e9)


class TestNumericalRobustness:
    def test_many_small_sequential_transfers_terminate(self, cluster):
        """Regression: fp residue must not stall the clock (zero-dt loop)."""
        engine = Engine()
        network = FlowNetwork(engine)
        route = cluster.topology.route("node0/gpu0", "node0/gpu1")

        def proc():
            for _ in range(200):
                yield network.transfer(route, 54765568.0)  # awkward size

        engine.process(proc())
        engine.run(max_events=200_000)
        assert network.completed_flows == 200


class TestFlowIds:
    def test_each_network_numbers_its_flows_from_zero(self, cluster):
        route = cluster.topology.route("node0/gpu0", "node0/gpu1")
        for _ in range(2):
            engine = Engine()
            network = FlowNetwork(engine)
            network.transfer(route, 1e9)
            network.transfer(route, 1e9)
            engine.run(until=route.latency())
            assert [flow.id for flow in network.active_flows()] == [0, 1]

    def test_two_traced_runs_in_one_process_give_equal_traces(self):
        """Flow ids are per network, so the second run's trace (flow ids
        included) equals the first's exactly."""
        from repro.api import RunSpec, run_spec

        spec = RunSpec("ddp", size_billions=0.7, iterations=2, trace=True)
        first = run_spec(spec).trace.to_dict()
        second = run_spec(spec).trace.to_dict()
        assert first["flows"]
        assert first == second
