"""Collective primitives and the topology-aware NCCL communicator."""

import pytest

from repro.collectives import (
    CollectiveKind,
    CollectiveOp,
    NcclCommunicator,
    ring_step_count,
    ring_traffic_factor,
)
from repro.errors import ConfigurationError
from repro.hardware import dual_node_cluster, single_node_cluster
from repro.sim.engine import Engine, Process
from repro.sim.flows import FlowNetwork, Launch


class TestRingMath:
    def test_all_reduce_factor(self):
        assert ring_traffic_factor(CollectiveKind.ALL_REDUCE, 4) == pytest.approx(1.5)

    def test_all_gather_factor(self):
        assert ring_traffic_factor(CollectiveKind.ALL_GATHER, 4) == pytest.approx(0.75)

    def test_reduce_scatter_factor(self):
        assert ring_traffic_factor(CollectiveKind.REDUCE_SCATTER, 8) == pytest.approx(7 / 8)

    def test_send_recv_factor(self):
        assert ring_traffic_factor(CollectiveKind.SEND_RECV, 8) == 1.0

    def test_single_rank_is_free(self):
        for kind in CollectiveKind:
            assert ring_traffic_factor(kind, 1) == 0.0
            assert ring_step_count(kind, 1) == 0

    def test_all_reduce_steps(self):
        assert ring_step_count(CollectiveKind.ALL_REDUCE, 4) == 6
        assert ring_step_count(CollectiveKind.ALL_GATHER, 4) == 3

    def test_bad_group_size(self):
        with pytest.raises(ConfigurationError):
            ring_traffic_factor(CollectiveKind.ALL_REDUCE, 0)


class TestCollectiveOp:
    def test_per_link_bytes(self):
        op = CollectiveOp(CollectiveKind.ALL_REDUCE, 8e9, 4)
        assert op.per_link_bytes == pytest.approx(12e9)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CollectiveOp(CollectiveKind.ALL_REDUCE, -1.0, 4)
        with pytest.raises(ConfigurationError):
            CollectiveOp(CollectiveKind.ALL_REDUCE, 1.0, 0)


def make_comm(cluster, ranks, **kwargs):
    engine = Engine()
    network = FlowNetwork(engine)
    comm = NcclCommunicator(cluster, engine, network, ranks, **kwargs)
    return engine, network, comm


class TestCommunicatorConstruction:
    def test_node_aware_ordering(self):
        cluster = dual_node_cluster()
        _, _, comm = make_comm(cluster, [5, 0, 4, 1])
        assert comm.ranks == (0, 1, 4, 5)

    def test_spans_nodes(self):
        cluster = dual_node_cluster()
        _, _, intra = make_comm(cluster, [0, 1, 2, 3])
        _, _, inter = make_comm(cluster, [0, 1, 4, 5])
        assert not intra.spans_nodes
        assert inter.spans_nodes

    def test_intra_node_builds_three_rings(self):
        cluster = single_node_cluster()
        _, _, comm = make_comm(cluster, [0, 1, 2, 3])
        assert len(comm.rings) == 3

    def test_inter_node_builds_four_rings(self):
        cluster = dual_node_cluster()
        _, _, comm = make_comm(cluster, list(range(8)))
        assert len(comm.rings) == 4

    def test_duplicate_ranks_rejected(self):
        cluster = single_node_cluster()
        with pytest.raises(ConfigurationError):
            make_comm(cluster, [0, 0, 1])

    def test_empty_ranks_rejected(self):
        cluster = single_node_cluster()
        with pytest.raises(ConfigurationError):
            make_comm(cluster, [])

    def test_launch_overhead_higher_across_nodes(self):
        cluster = dual_node_cluster()
        _, _, intra = make_comm(cluster, [0, 1, 2, 3])
        _, _, inter = make_comm(cluster, list(range(8)))
        assert inter.launch_overhead > intra.launch_overhead

    def test_bad_rate_efficiency_rejected(self):
        cluster = single_node_cluster()
        with pytest.raises(ConfigurationError):
            make_comm(cluster, [0, 1], internode_rate_efficiency=0.0)


class TestCollectiveExecution:
    def test_all_reduce_charges_nvlink(self):
        cluster = single_node_cluster()
        cluster.reset()
        engine, network, comm = make_comm(cluster, [0, 1, 2, 3])
        comm.all_reduce(4e9)
        engine.run()
        nvlink_bytes = sum(
            link.ledger.total_bytes
            for link in cluster.topology.links if link.link_class.value == "NVLink"
        )
        # Ring all-reduce moves 2*(n-1)/n * payload per ring position;
        # summed over all hops of all rings this is rings-independent:
        # n hops x per-link bytes.
        assert nvlink_bytes == pytest.approx(4 * 1.5 * 4e9, rel=1e-3)

    def test_single_rank_collective_is_instant(self):
        cluster = single_node_cluster()
        engine, network, comm = make_comm(cluster, [0])
        event = comm.all_reduce(1e9)
        engine.run()
        assert event.triggered

    def test_mismatched_group_size_rejected(self):
        cluster = single_node_cluster()
        _, _, comm = make_comm(cluster, [0, 1])
        with pytest.raises(ConfigurationError):
            comm.run(CollectiveOp(CollectiveKind.ALL_REDUCE, 1e9, 4))

    def test_launch_count_scales_overhead(self):
        cluster = dual_node_cluster()
        op = CollectiveOp(CollectiveKind.ALL_REDUCE, 1.0, 8)

        def run_with(count):
            engine, network, comm = make_comm(cluster, list(range(8)))
            comm.run(op, launch_count=count)
            return engine.run()

        assert run_with(10) > run_with(1)

    def test_outage_probe_rescans_after_a_capacity_change(self,
                                                          monkeypatch):
        """The ring links are scanned for outages only after a capacity
        change since the last scan that found them all up: a link taken
        down after a clean collective sends the next one into the retry
        loop, and once it is restored the next one dispatches at once."""
        cluster = dual_node_cluster()
        engine, _, comm = make_comm(cluster, list(range(8)))
        op = CollectiveOp(CollectiveKind.ALL_REDUCE, 64e6, 8)
        scans = []
        down_links = NcclCommunicator._down_links
        monkeypatch.setattr(NcclCommunicator, "_down_links",
                            lambda self: scans.append(None) or
                            down_links(self))

        def entered_retry(event):
            return (isinstance(event, Process)
                    and event.generator.__name__ == "_retry_until_path_up")

        assert isinstance(comm.run(op), Launch)
        engine.run()
        assert isinstance(comm.run(op), Launch)
        assert len(scans) == 1  # no capacity change, no second scan
        engine.run()
        link = comm.rings[0].routes[0].links[0]
        link.set_capacity_fraction(0.0, at_time=engine.now)
        stalled = comm.run(op)
        assert entered_retry(stalled)
        link.reset_capacity()
        resumed = comm.run(op)
        assert isinstance(resumed, Launch)
        engine.run()
        assert stalled.triggered and resumed.triggered

    def test_send_recv_moves_payload(self):
        cluster = single_node_cluster()
        cluster.reset()
        engine, network, comm = make_comm(cluster, [0, 1, 2, 3])
        comm.send_recv(0, 1, 2e9)
        engine.run()
        link = cluster.topology.link_between("node0/gpu0", "node0/gpu1")
        assert link.ledger.total_bytes == pytest.approx(2e9)


class TestEstimates:
    def test_estimate_matches_des_order_of_magnitude(self):
        cluster = single_node_cluster()
        engine, network, comm = make_comm(cluster, [0, 1, 2, 3])
        estimate = comm.estimate_all_reduce(4e9)
        done = []
        comm.all_reduce(4e9).add_callback(lambda e: done.append(engine.now))
        engine.run()
        assert done[0] == pytest.approx(estimate, rel=0.5)

    def test_estimate_zero_payload(self):
        cluster = single_node_cluster()
        _, _, comm = make_comm(cluster, [0, 1])
        assert comm.estimate_all_reduce(0.0) == 0.0

    def test_internode_estimate_slower(self):
        dual = dual_node_cluster()
        _, _, inter = make_comm(dual, list(range(8)))
        single = single_node_cluster()
        _, _, intra = make_comm(single, [0, 1, 2, 3])
        assert (inter.estimate_all_reduce(1e9)
                > intra.estimate_all_reduce(1e9))
