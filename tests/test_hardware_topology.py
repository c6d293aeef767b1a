"""Topology routing over the XE8545 cluster."""

import pytest

from repro.errors import TopologyError
from repro.hardware import (
    Device,
    DeviceKind,
    Link,
    LinkClass,
    LinkSpec,
    Topology,
    dual_node_cluster,
)


@pytest.fixture(scope="module")
def dual():
    return dual_node_cluster()


class TestRouting:
    def test_gpu_to_gpu_same_node_uses_nvlink(self, dual):
        route = dual.topology.route("node0/gpu0", "node0/gpu3")
        assert route.link_classes == (LinkClass.NVLINK,)

    def test_gpu_to_gpu_cross_node_path(self, dual):
        route = dual.topology.route("node0/gpu0", "node1/gpu0")
        assert route.link_classes == (
            LinkClass.PCIE_GPU, LinkClass.PCIE_NIC, LinkClass.ROCE,
            LinkClass.ROCE, LinkClass.PCIE_NIC, LinkClass.PCIE_GPU,
        )

    def test_cross_node_uses_same_socket_nic(self, dual):
        """NCCL-like NIC affinity: socket-1 GPUs exit via nic1."""
        route = dual.topology.route("node0/gpu3", "node1/gpu3")
        names = [link.name for link in route.links]
        assert "node0/pcie-nic1" in names
        assert "node1/pcie-nic1" in names

    def test_gpu_to_local_dram(self, dual):
        route = dual.topology.route("node0/gpu0", "node0/dram0")
        assert route.link_classes == (LinkClass.PCIE_GPU, LinkClass.DRAM)

    def test_gpu_to_remote_socket_dram_crosses_xgmi(self, dual):
        route = dual.topology.route("node0/gpu0", "node0/dram1")
        assert LinkClass.XGMI in route.link_classes

    def test_loopback_route(self, dual):
        route = dual.topology.route("node0/gpu0", "node0/gpu0")
        assert route.is_loopback
        assert route.bandwidth() == float("inf")
        assert route.transfer_time(1e9) == 0.0

    def test_route_is_cached(self, dual):
        a = dual.topology.route("node0/gpu0", "node0/gpu1")
        b = dual.topology.route("node0/gpu0", "node0/gpu1")
        assert a is b

    def test_unknown_device_raises(self, dual):
        with pytest.raises(TopologyError):
            dual.topology.route("node0/gpu0", "node9/gpu0")
        with pytest.raises(TopologyError):
            dual.topology.route("nope", "node0/gpu0")

    def test_route_via_forces_waypoints(self, dual):
        forced = dual.topology.route_via(
            "node0/dram0", "node1/dram0", ["node0/nic1", "node1/nic1"]
        )
        assert LinkClass.XGMI in forced.link_classes

    def test_link_between(self, dual):
        link = dual.topology.link_between("node0/cpu0", "node0/dram0")
        assert link.link_class is LinkClass.DRAM

    def test_link_between_missing(self, dual):
        with pytest.raises(TopologyError):
            dual.topology.link_between("node0/gpu0", "node0/nic0")


class TestRouteProperties:
    def test_transfer_time_includes_latency(self, dual):
        route = dual.topology.route("node0/gpu0", "node0/gpu1")
        small = route.transfer_time(1.0)
        assert small >= route.latency()

    def test_transfer_time_scales_with_bytes(self, dual):
        route = dual.topology.route("node0/gpu0", "node0/gpu1")
        t1 = route.transfer_time(1e9)
        t2 = route.transfer_time(2e9)
        assert t2 > t1

    def test_record_charges_all_links(self, dual):
        dual.reset()
        route = dual.topology.route("node0/gpu0", "node1/gpu0")
        route.record(0.0, 1.0, 7e9)
        for link in route.links:
            assert link.ledger.total_bytes == pytest.approx(7e9)
        dual.reset()

    def test_crosses(self, dual):
        route = dual.topology.route("node0/gpu0", "node1/gpu0")
        assert route.crosses(LinkClass.ROCE)
        assert not route.crosses(LinkClass.NVLINK)


class TestTopologyConstruction:
    def test_duplicate_device_rejected(self):
        topo = Topology()
        topo.add_device(Device("a", DeviceKind.CPU))
        with pytest.raises(TopologyError):
            topo.add_device(Device("a", DeviceKind.CPU))

    def test_link_with_unknown_endpoint_rejected(self):
        topo = Topology()
        topo.add_device(Device("a", DeviceKind.CPU))
        spec = LinkSpec(link_class=LinkClass.DRAM,
                        bandwidth_per_direction=1e9, latency=0.0)
        with pytest.raises(TopologyError):
            topo.add_link(Link("l", spec, "a", "b"))

    def test_disconnected_route_raises(self):
        topo = Topology()
        topo.add_device(Device("a", DeviceKind.CPU))
        topo.add_device(Device("b", DeviceKind.CPU))
        with pytest.raises(TopologyError):
            topo.route("a", "b")

    def test_reset_ledgers(self, dual):
        route = dual.topology.route("node0/gpu0", "node0/gpu1")
        route.record(0.0, 1.0, 1e9)
        dual.topology.reset_ledgers()
        assert all(len(link.ledger) == 0 for link in dual.topology.links)
