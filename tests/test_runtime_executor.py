"""The schedule executor on the DES."""

import pytest

from repro.collectives import CollectiveKind
from repro.errors import ConfigurationError
from repro.hardware import single_node_cluster
from repro.hardware.link import LinkClass
from repro.hardware.nvme import Raid0Volume
from repro.parallel.schedule import (
    CollectiveStep,
    CommunicatorSpec,
    ComputeStep,
    CpuWorkStep,
    HostTransferStep,
    IdleStep,
    Location,
    WaitForStep,
    WaitPendingStep,
    uniform_schedule,
)
from repro.runtime.executor import Executor
from repro.runtime.kernels import KernelKind
from repro.trace.model import Lane
from repro.trace.query import filter_spans


@pytest.fixture()
def cluster():
    c = single_node_cluster()
    c.reset()
    return c


def schedule_of(steps, ranks=(0, 1, 2, 3)):
    ranks = list(ranks)
    return uniform_schedule(ranks, steps,
                            {"dp": CommunicatorSpec("dp", [ranks])})


class TestBasics:
    def test_compute_steps_advance_time(self, cluster):
        sched = schedule_of([ComputeStep(KernelKind.GEMM, 0.5, "g")])
        result = Executor(cluster, sched).run(1)
        assert result.iteration_times == [pytest.approx(0.5)]

    def test_multiple_iterations(self, cluster):
        sched = schedule_of([ComputeStep(KernelKind.GEMM, 0.25, "g")])
        result = Executor(cluster, sched).run(4)
        assert len(result.iteration_times) == 4
        assert result.total_time == pytest.approx(1.0)

    def test_idle_recorded(self, cluster):
        sched = schedule_of([IdleStep(0.2, "bubble")])
        result = Executor(cluster, sched).run(1)
        idles = filter_spans(result.spans, rank=0, kind=KernelKind.IDLE)
        assert idles and idles[0].duration == pytest.approx(0.2)

    def test_zero_iterations_rejected(self, cluster):
        sched = schedule_of([ComputeStep(KernelKind.GEMM, 0.1, "g")])
        with pytest.raises(ConfigurationError):
            Executor(cluster, sched).run(0)


class TestCollectives:
    def test_blocking_collective_synchronizes_ranks(self, cluster):
        # Rank-uniform schedule; collective completes once for the group.
        sched = schedule_of([
            ComputeStep(KernelKind.GEMM, 0.1, "g"),
            CollectiveStep("ar", "dp", CollectiveKind.ALL_REDUCE, 4e9),
        ])
        result = Executor(cluster, sched).run(1)
        comm = filter_spans(result.spans, rank=0, lane=Lane.COMMUNICATION)
        assert len(comm) == 1
        assert result.iteration_times[0] > 0.1

    def test_non_blocking_overlaps_with_compute(self, cluster):
        overlapped = schedule_of([
            CollectiveStep("ar", "dp", CollectiveKind.ALL_REDUCE, 9e9,
                           blocking=False),
            ComputeStep(KernelKind.GEMM, 1.0, "g"),
            WaitPendingStep(),
        ])
        blocking = schedule_of([
            CollectiveStep("ar", "dp", CollectiveKind.ALL_REDUCE, 9e9,
                           blocking=True),
            ComputeStep(KernelKind.GEMM, 1.0, "g"),
        ])
        cluster.reset()
        t_overlap = Executor(cluster, overlapped).run(1).iteration_times[0]
        cluster.reset()
        t_block = Executor(cluster, blocking).run(1).iteration_times[0]
        assert t_overlap < t_block

    def test_wait_for_specific_key(self, cluster):
        sched = schedule_of([
            CollectiveStep("prefetch", "dp", CollectiveKind.ALL_GATHER,
                           4e9, blocking=False),
            ComputeStep(KernelKind.GEMM, 0.001, "g"),
            WaitForStep(key="prefetch"),
            ComputeStep(KernelKind.GEMM, 0.001, "g2"),
        ])
        result = Executor(cluster, sched).run(1)
        assert result.iteration_times[0] > 0.002

    def test_collectives_fill_nvlink_ledger(self, cluster):
        sched = schedule_of([
            CollectiveStep("ar", "dp", CollectiveKind.ALL_REDUCE, 4e9),
        ])
        Executor(cluster, sched).run(1)
        nvlink = cluster.topology.links_of_class(LinkClass.NVLINK)
        assert sum(l.ledger.total_bytes for l in nvlink) > 0

    def test_collective_timeline_attributed_to_all_ranks(self, cluster):
        sched = schedule_of([
            CollectiveStep("ar", "dp", CollectiveKind.ALL_REDUCE, 1e9),
        ])
        result = Executor(cluster, sched).run(1)
        for rank in range(4):
            assert filter_spans(result.spans, rank=rank,
                                lane=Lane.COMMUNICATION)


class TestHostTransfers:
    def test_gpu_to_dram_charges_pcie_and_dram(self, cluster):
        sched = schedule_of([
            HostTransferStep("offload", Location.GPU, Location.DRAM, 2e9),
        ])
        Executor(cluster, sched).run(1)
        pcie = cluster.topology.links_of_class(LinkClass.PCIE_GPU)
        dram = cluster.topology.links_of_class(LinkClass.DRAM)
        assert sum(l.ledger.total_bytes for l in pcie) == pytest.approx(8e9)
        assert sum(l.ledger.total_bytes for l in dram) == pytest.approx(8e9)

    def test_nvme_transfer_needs_volume(self, cluster):
        sched = schedule_of([
            HostTransferStep("swap", Location.DRAM, Location.NVME, 1e9),
        ])
        with pytest.raises(ConfigurationError):
            Executor(cluster, sched).run(1)

    def test_nvme_transfer_with_volume(self, cluster):
        volume = Raid0Volume("md0", cluster.nodes[0].scratch_drives)
        volumes = {rank: volume for rank in range(4)}
        sched = schedule_of([
            HostTransferStep("swap", Location.DRAM, Location.NVME, 4e9),
        ])
        result = Executor(cluster, sched, swap_volumes=volumes).run(1)
        nvme = cluster.topology.links_of_class(LinkClass.PCIE_NVME)
        assert sum(l.ledger.total_bytes for l in nvme) == pytest.approx(16e9)
        # Media-bound: 16 GB over 2 drives at ~1.53 GB/s effective writes.
        assert result.iteration_times[0] > 3.0

    def test_nvme_read_faster_than_write(self, cluster):
        volume = Raid0Volume("md0", cluster.nodes[0].scratch_drives)
        volumes = {rank: volume for rank in range(4)}
        write = schedule_of([
            HostTransferStep("w", Location.DRAM, Location.NVME, 4e9)])
        read = schedule_of([
            HostTransferStep("r", Location.NVME, Location.DRAM, 4e9)])
        cluster.reset()
        t_write = Executor(cluster, write,
                           swap_volumes=volumes).run(1).iteration_times[0]
        cluster.reset()
        t_read = Executor(cluster, read,
                          swap_volumes=volumes).run(1).iteration_times[0]
        assert t_read < t_write


class TestCpuWork:
    def test_cpu_adam_blocks_and_charges_dram(self, cluster):
        sched = schedule_of([CpuWorkStep("adam", 1e9)])
        result = Executor(cluster, sched).run(1)
        assert result.iteration_times[0] > 0.1
        dram = cluster.topology.links_of_class(LinkClass.DRAM)
        assert sum(l.ledger.total_bytes for l in dram) > 0
        host_records = filter_spans(result.spans, rank=0, lane=Lane.HOST_IO,
                                    kind=KernelKind.CPU_OPTIMIZER)
        assert len(host_records) == 1

    def test_socket_sharing_slows_cpu_adam(self, cluster):
        # Two ranks share each socket; a lone-rank schedule on rank 0 only
        # would still pay the sharing factor of its socket population.
        sched_all = schedule_of([CpuWorkStep("adam", 1e9)])
        result = Executor(cluster, sched_all).run(1)
        records = filter_spans(result.spans, rank=0,
                               kind=KernelKind.CPU_OPTIMIZER)
        from repro import calibration
        from repro.hardware.cpu import cpu_adam_step_time
        base = cpu_adam_step_time(1e9, cluster.nodes[0].spec.cpu)
        expected = base * 2 / calibration.CPU_ADAM_SHARE_EFFICIENCY
        assert records[0].duration == pytest.approx(expected)


class TestCollectiveGateErrors:
    def test_overfull_gate_names_group_and_counts(self, cluster):
        """The gate's arrival-overflow error must carry enough context
        to debug a miskeyed schedule: comm name, group index, and the
        observed vs expected arrival counts."""
        from repro.errors import SimulationError
        from repro.runtime.executor import _CollectiveGate

        class _StubEvent:
            def add_callback(self, callback):
                pass

        class _StubComm:
            def run(self, op, launch_count=1):
                return _StubEvent()

        executor = Executor(cluster, schedule_of([ComputeStep("fwd", 1.0)]))
        gate = _CollectiveGate(executor, _StubComm(), op=None,
                               kernel=KernelKind.NCCL_ALL_REDUCE,
                               group=[0, 1],
                               comm_name="dp", group_index=3)
        gate.arrive()
        gate.arrive()
        with pytest.raises(SimulationError) as error:
            gate.arrive()
        message = str(error.value)
        assert "'dp'[3]" in message
        assert "3 observed, 2 expected" in message
        assert "ranks [0, 1]" in message


class TestSharedEngineMode:
    def test_execute_runs_as_generator_on_shared_engine(self, cluster):
        from repro.sim.engine import Engine
        from repro.sim.flows import FlowNetwork

        engine = Engine()
        network = FlowNetwork(engine)
        sched = schedule_of([ComputeStep("fwd", 1.0)])
        executor = Executor(cluster, sched, engine=engine, network=network,
                            flow_tag="jobX/")
        proc = engine.process(executor.execute(2), name="body")
        engine.run()
        result = proc.value
        assert len(result.iteration_times) == 2
        assert result.total_time > 0

    def test_flow_tag_prefixes_process_names(self, cluster):
        from repro.sim.engine import Engine
        from repro.sim.flows import FlowNetwork

        engine = Engine()
        executor = Executor(cluster, schedule_of([ComputeStep("fwd", 1.0)]),
                            engine=engine, network=FlowNetwork(engine),
                            flow_tag="job7/")
        seen = []
        original = engine.process

        def spy(generator, name=""):
            seen.append(name)
            return original(generator, name)

        engine.process = spy
        proc = original(executor.execute(1), name="body")
        engine.run()
        assert proc.value is not None
        assert any(name.startswith("job7/rank0/") for name in seen)

    def test_should_stop_halts_between_iterations(self, cluster):
        from repro.sim.engine import Engine
        from repro.sim.flows import FlowNetwork

        engine = Engine()
        executor = Executor(cluster, schedule_of([ComputeStep("fwd", 1.0)]),
                            engine=engine, network=FlowNetwork(engine))
        flags = {"stop": False}
        proc = engine.process(
            executor.execute(10, should_stop=lambda: flags["stop"]),
            name="body")

        def request_stop():
            flags["stop"] = True

        engine.schedule_at(0.0015, request_stop)
        engine.run()
        completed = len(proc.value.iteration_times)
        assert 0 < completed < 10

    def test_standalone_run_unchanged(self, cluster):
        # run() still owns its private engine and liveness check.
        sched = schedule_of([ComputeStep("fwd", 1.0)])
        result = Executor(cluster, sched).run(2)
        assert len(result.iteration_times) == 2
        assert result.events_processed > 0


class TestFinishedRunIsFreed:
    def test_cyclic_garbage_does_not_grow_with_iterations(self):
        """A dropped run is freed by reference counting: what a full
        collection still finds afterwards does not grow with the number
        of iterations (finished processes and collective gates used to
        keep every iteration's spans, events and gates in cycles)."""
        import gc

        from repro.api import RunSpec, build_cluster, run_spec

        def garbage(iterations):
            spec = RunSpec("zero3", size_billions=0.7, nodes=2,
                           iterations=iterations)
            gc.collect()
            gc.disable()
            try:
                run_spec(spec, cluster=build_cluster(spec))
                return gc.collect()
            finally:
                gc.enable()

        garbage(3)  # first-use caches
        assert garbage(12) <= garbage(6)
