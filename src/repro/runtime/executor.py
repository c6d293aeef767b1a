"""Schedule executor: runs a strategy's iteration schedule on the DES.

One simulated process per GPU rank interprets the strategy's
:mod:`~repro.parallel.schedule` steps:

* compute steps advance the rank's clock (the GPU is busy);
* collective steps rendezvous all ranks of the group, then run as flows
  through the :class:`~repro.collectives.nccl.NcclCommunicator`;
* host transfers and NVMe I/O become flows over the topology, so PCIe,
  xGMI, DRAM, and NVMe ledgers fill in automatically;
* CPU optimizer work charges the socket's DRAM channels.

The run produces iteration times, the Fig.-5-style rank-lane spans (a
plain list of :class:`~repro.trace.model.Span` that
:mod:`repro.trace.query` and :mod:`repro.trace.ascii` read), and fully
populated per-link bandwidth ledgers — everything the paper's
experiments need in a single pass.

The executor builds and wires no instruments.  A run that wants a tie
order, the sanitizers or a trace gets its engine and flow network from
:class:`repro.sim.probes.RunProbes` and passes them in; the only hook
left here is ``collective_sink``, told of every collective phase (the
name and contract :class:`~repro.inference.batching.ServingScheduler`
uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.liveness import check_liveness
from ..collectives.nccl import NcclCommunicator, RetryPolicy
from ..collectives.primitives import CollectiveOp
from .. import calibration
from ..errors import ConfigurationError, SimulationError
from ..faults.events import FaultEvent
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..hardware.cluster import Cluster
from ..hardware.cpu import CPU_ADAM_BYTES_PER_PARAM, cpu_adam_step_time
from ..hardware.nvme import Raid0Volume
from ..hardware.serdes import TrafficProfile
from ..parallel.schedule import (
    CollectiveStep,
    ComputeStep,
    CpuWorkStep,
    HostTransferStep,
    IdleStep,
    IterationSchedule,
    Location,
    WaitForStep,
    WaitPendingStep,
)
from ..sim.engine import BaseEvent, Engine
from ..sim.flows import FlowNetwork
from ..sim.leaksan import LeakReport
from ..sim.sanitizer import SanitizerReport
from ..trace.model import Lane, Span
from .kernels import KernelKind, straggler_multiplier


@dataclass
class ExecutionResult:
    """Everything one simulated training run produced."""

    iteration_times: List[float]
    #: every rank-lane span the run recorded, in recording order
    spans: List[Span]
    total_time: float
    #: populated only for sanitized runs
    #: (``run_training(..., sanitize=True)``); the runner fills it in
    #: when it closes the run's probes
    sanitizer: Optional[SanitizerReport] = None
    #: populated only for leak-checked runs
    #: (``run_training(..., leak_check=True)``); the runner fills it in
    #: after teardown releases the memory plan
    leaks: Optional["LeakReport"] = None
    #: the materialized fault windows the injector applied (empty for
    #: fault-free runs); the trace builder turns these into fault spans
    fault_events: List[FaultEvent] = field(default_factory=list)
    #: DES callbacks executed over the whole run — the numerator of the
    #: events/sec figure the perf benchmarks track (``benchmarks/perf.py``).
    #: Batched dispatches count at their original multiplicity (a fold of
    #: N occurrences contributes N), so the figure is comparable across
    #: folded and unfolded runs.
    events_processed: int = 0
    #: occurrences absorbed by homogeneous-event batching (a fold of N
    #: contributes N-1); 0 when batching is off or never fired
    events_folded: int = 0
    #: analytic event-equivalents added by the hybrid extrapolator —
    #: kept separate from ``events_processed`` so the DES throughput
    #: figure never mixes simulated and extrapolated work
    events_extrapolated: int = 0
    #: iterations the hybrid fast path appended analytically (0 for full
    #: fidelity runs)
    extrapolated_iterations: int = 0

    @property
    def mean_iteration_time(self) -> float:
        if not self.iteration_times:
            return 0.0
        return sum(self.iteration_times) / len(self.iteration_times)


class _CollectiveGate:
    """Rendezvous for one keyed collective across its group's ranks."""

    def __init__(self, executor: "Executor", comm: NcclCommunicator,
                 op: CollectiveOp, kernel: KernelKind,
                 group: List[int], launch_count: int = 1,
                 comm_name: str = "", group_index: int = 0) -> None:
        self.executor = executor
        self.comm = comm
        self.op = op
        self.kernel = kernel
        self.group = group
        self.launch_count = launch_count
        self.comm_name = comm_name
        self.group_index = group_index
        self.arrived = 0
        self.event = executor.engine.event()

    def arrive(self) -> BaseEvent:
        self.arrived += 1
        if self.arrived > len(self.group):
            raise SimulationError(
                f"collective gate {self.comm_name!r}[{self.group_index}]: "
                f"more arrivals than group members "
                f"({self.arrived} observed, {len(self.group)} expected "
                f"for ranks {self.group})"
            )
        if self.arrived == len(self.group):
            started_at = self.executor.engine.now
            inner = self.comm.run(self.op, launch_count=self.launch_count)
            inner.add_callback(lambda _ev: self._finish(started_at))
        return self.event

    def _finish(self, started_at: float) -> None:
        now = self.executor.engine.now
        spans = self.executor.spans
        name = str(self.op.kind)
        for rank in self.group:
            spans.append(Span(rank, Lane.COMMUNICATION, self.kernel, name,
                              started_at, now))
        sink = self.executor.collective_sink
        if sink is not None:
            sink.collective_phase(
                self.comm_name, self.group_index, str(self.op.kind),
                self.op.payload_bytes, self.launch_count,
                tuple(self.group), started_at, now,
            )
        self.event.succeed(None)


class Executor:
    """Runs an :class:`IterationSchedule` on a cluster for N iterations.

    Without an ``engine`` and ``network`` it makes a bare private pair
    with no instruments.  The cluster service (:mod:`repro.cluster`)
    passes one *shared* pair so many jobs run concurrently on one event
    loop and one set of link ledgers; in that mode ``flow_tag`` prefixes
    every flow label the job launches (host transfers and collective
    traffic alike), keeping per-job traffic attributable in the shared
    ledgers and trace.
    """

    def __init__(self, cluster: Cluster, schedule: IterationSchedule, *,
                 traffic_profile: TrafficProfile = TrafficProfile.BURSTY,
                 swap_volumes: Optional[Dict[int, Raid0Volume]] = None,
                 internode_rate_efficiency: float = 0.35,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 collective_sink=None,
                 engine: Optional[Engine] = None,
                 network: Optional[FlowNetwork] = None,
                 flow_tag: str = "") -> None:
        schedule.validate()
        self.cluster = cluster
        self.schedule = schedule
        self.traffic_profile = traffic_profile
        self.swap_volumes = swap_volumes or {}
        self.engine = engine if engine is not None else Engine()
        self.network = network if network is not None else FlowNetwork(self.engine)
        self.spans: List[Span] = []
        self.flow_tag = flow_tag
        # Append-only (no engine interaction), so a sink cannot change
        # the schedule; when absent the gate's hook is one None check.
        self.collective_sink = collective_sink
        self.retry_policy = retry_policy
        # An empty (or absent) plan registers no hooks and schedules no
        # events, so a fault-free run is bit-identical with or without it.
        self.faults: Optional[FaultInjector] = (
            FaultInjector(fault_plan, cluster, self.engine, self.network)
            if fault_plan is not None else None
        )
        self._gates: Dict[Tuple[str, int, str], _CollectiveGate] = {}
        self._keyed_events: Dict[Tuple[int, str], BaseEvent] = {}
        self._communicators = self._build_communicators(internode_rate_efficiency)

    # -- setup ---------------------------------------------------------------
    def _build_communicators(
        self, internode_rate_efficiency: float
    ) -> Dict[Tuple[str, int], NcclCommunicator]:
        comms: Dict[Tuple[str, int], NcclCommunicator] = {}
        for name, spec in self.schedule.communicators.items():
            for index, group in enumerate(spec.groups):
                comms[(name, index)] = NcclCommunicator(
                    self.cluster, self.engine, self.network, group,
                    profile=self.traffic_profile,
                    internode_rate_efficiency=internode_rate_efficiency,
                    retry_policy=self.retry_policy,
                    label_prefix=self.flow_tag,
                )
        return comms

    # -- run -------------------------------------------------------------------
    def execute(self, num_iterations: int, *, should_stop=None):
        """The run as a schedulable generator (a *job body*).

        Standalone callers use :meth:`run`; the cluster service instead
        spawns this generator as one process among many on a shared
        engine (``engine.process(executor.execute(n))`` or ``yield
        from`` inside a larger job body).  ``should_stop`` is polled at
        iteration boundaries — the preemption hook: returning true stops
        the run cleanly after the current iteration, and the returned
        :class:`ExecutionResult` simply carries fewer iteration times.
        """
        if num_iterations < 1:
            raise ConfigurationError("need at least one iteration")
        return self._execute(num_iterations, should_stop)

    def _execute(self, num_iterations: int, should_stop):
        iteration_times: List[float] = []
        started_at = self.engine.now
        for iteration in range(num_iterations):
            started = self.engine.now
            processes = [
                self.engine.process(
                    self._rank_process(rank, iteration),
                    name=f"{self.flow_tag}rank{rank}/it{iteration}",
                )
                for rank in self.schedule.ranks
            ]
            yield self.engine.all_of(processes)
            iteration_times.append(self.engine.now - started)
            if should_stop is not None and should_stop():
                break
        # Training ends when the driver does.  engine.run() keeps draining
        # whatever else is queued (e.g. fault-revert callbacks scheduled
        # past the last iteration), and that trailing housekeeping must
        # not stretch total_time and dilute the bandwidth statistics.
        return ExecutionResult(
            iteration_times=iteration_times,
            spans=self.spans,
            total_time=self.engine.now - started_at,
        )

    def run(self, num_iterations: int) -> ExecutionResult:
        proc = self.engine.process(self.execute(num_iterations), name="driver")
        self.engine.run()
        check_liveness(self.engine)
        result: ExecutionResult = proc.value
        result.fault_events = (
            list(self.faults.applied_events)
            if self.faults is not None else []
        )
        result.events_processed = self.engine.events_processed
        result.events_folded = self.engine.events_folded
        return result

    # -- per-rank interpretation ------------------------------------------------
    def _rank_process(self, rank: int, iteration: int):
        pending: List[BaseEvent] = []
        for step in self.schedule.steps_by_rank[rank]:
            if isinstance(step, ComputeStep):
                start = self.engine.now
                duration = step.duration
                if self.faults is not None:
                    # Sampled at kernel launch: a straggler window opening
                    # mid-kernel stretches the *next* kernel, matching how
                    # a clock drop only affects instructions not yet run.
                    duration *= straggler_multiplier(
                        step.kind, self.faults.compute_multiplier(rank)
                    )
                yield self.engine.timeout(duration)
                self.spans.append(Span(rank, Lane.COMPUTE, step.kind,
                                       step.name, start, self.engine.now))
            elif isinstance(step, IdleStep):
                start = self.engine.now
                yield self.engine.timeout(step.duration)
                self.spans.append(Span(rank, Lane.COMPUTE, KernelKind.IDLE,
                                       step.name, start, self.engine.now))
            elif isinstance(step, CollectiveStep):
                event = self._join_collective(rank, iteration, step)
                self._keyed_events[(rank, self._iter_key(iteration, step.key))] = event
                if step.blocking:
                    start = self.engine.now
                    yield event
                    self._record_idle(rank, start, step.key)
                else:
                    pending.append(event)
            elif isinstance(step, WaitPendingStep):
                if pending:
                    start = self.engine.now
                    yield self.engine.all_of(pending)
                    pending = []
                    self._record_idle(rank, start, step.name)
            elif isinstance(step, WaitForStep):
                event = self._keyed_events.get(
                    (rank, self._iter_key(iteration, step.key))
                )
                if event is None:
                    raise SimulationError(
                        f"rank {rank} waits for unknown key {step.key!r}"
                    )
                if not event.triggered:
                    start = self.engine.now
                    yield event
                    self._record_idle(rank, start, step.key)
                if event in pending:
                    pending.remove(event)
            elif isinstance(step, HostTransferStep):
                events = self._host_transfer(rank, step)
                if step.blocking:
                    start = self.engine.now
                    yield self.engine.all_of(events)
                    kind = (
                        KernelKind.NVME_IO
                        if Location.NVME in (step.src, step.dst)
                        else KernelKind.HOST_TRANSFER
                    )
                    self.spans.append(Span(rank, Lane.HOST_IO, kind,
                                           step.name, start, self.engine.now))
                    self._record_idle(rank, start, step.name)
                else:
                    pending.extend(events)
            elif isinstance(step, CpuWorkStep):
                start = self.engine.now
                duration = self._cpu_work_duration(rank, step)
                yield self.engine.timeout(duration)
                self._record_cpu_work(rank, step, start, self.engine.now)
            else:  # pragma: no cover - exhaustive over the IR
                raise SimulationError(f"unknown step type {type(step).__name__}")
        if pending:
            start = self.engine.now
            yield self.engine.all_of(pending)
            self._record_idle(rank, start, "drain_pending")

    # -- step helpers -------------------------------------------------------------
    @staticmethod
    def _iter_key(iteration: int, key: str) -> str:
        return f"it{iteration}/{key}"

    def _record_idle(self, rank: int, start: float, name: str) -> None:
        now = self.engine.now
        if now > start:
            self.spans.append(Span(rank, Lane.COMPUTE, KernelKind.IDLE,
                                   f"wait:{name}", start, now))

    def _join_collective(self, rank: int, iteration: int,
                         step: CollectiveStep) -> BaseEvent:
        spec = self.schedule.communicators[step.comm]
        group_index, group = spec.group_of(rank)
        gate_key = (step.comm, group_index, self._iter_key(iteration, step.key))
        self.engine.note_touch(f"stream:{step.comm}[{group_index}]")
        gate = self._gates.get(gate_key)
        if gate is None:
            comm = self._communicators[(step.comm, group_index)]
            op = CollectiveOp(step.kind, step.payload_bytes, comm.size)
            gate = _CollectiveGate(self, comm, op, step.kernel_kind, group,
                                   launch_count=step.op_count,
                                   comm_name=step.comm,
                                   group_index=group_index)
            self._gates[gate_key] = gate
        return gate.arrive()

    def _host_transfer(self, rank: int, step: HostTransferStep) -> List[BaseEvent]:
        gpu = self.cluster.gpu(rank).name
        dram = self.cluster.dram_for_rank(rank).name
        topology = self.cluster.topology

        def endpoint(loc: Location) -> Optional[str]:
            if loc is Location.GPU:
                return gpu
            if loc is Location.DRAM:
                return dram
            return None  # NVMe resolves per stripe member

        src = endpoint(step.src)
        dst = endpoint(step.dst)
        if src is not None and dst is not None:
            route = topology.route(src, dst)
            return [self.network.transfer(route, step.payload_bytes,
                                          profile=self.traffic_profile,
                                          label=self.flow_tag + step.name)]
        # One endpoint is the rank's NVMe swap volume: stripe the payload
        # across member drives, capping each flow at the drive's media
        # bandwidth under the aio layer.
        volume = self.swap_volumes.get(rank)
        if volume is None:
            raise ConfigurationError(
                f"rank {rank} performs NVMe I/O but has no swap volume"
            )
        reading = step.src is Location.NVME
        per_member = step.payload_bytes / len(volume.drives)
        events = []
        for drive in volume.drives:
            if reading:
                route = topology.route(drive.device.name, dram)
                media = (drive.effective_nand_read_bandwidth
                         * calibration.AIO_EFFICIENCY)
            else:
                route = topology.route(dram, drive.device.name)
                media = (drive.effective_nand_write_bandwidth
                         * calibration.AIO_EFFICIENCY)
            # The drive's NAND media, not its PCIe x4 link, bounds
            # sustained swap traffic; scale the flow's pool consumption so
            # aggregate throughput stays at media rate no matter how many
            # ranks swap against the drive concurrently.
            pcie_link = route.links[0] if reading else route.links[-1]
            multiplier = max(1.0, pcie_link.capacity_per_direction / media)
            events.append(
                self.network.transfer(route, per_member,
                                      profile=self.traffic_profile,
                                      weight_multiplier=multiplier,
                                      label=self.flow_tag + step.name)
            )
        return events

    def _ranks_per_socket(self, rank: int) -> int:
        """How many ranks' CPU work shares this rank's socket DRAM."""
        node = self.cluster.node_of_rank(rank)
        socket = self.cluster.gpu(rank).socket_index
        return max(1, sum(
            1 for gpu in node.gpus if gpu.socket_index == socket
        ))

    def _cpu_work_duration(self, rank: int, step: CpuWorkStep) -> float:
        cpu_spec = self.cluster.nodes[0].spec.cpu
        base = cpu_adam_step_time(step.num_params, cpu_spec)
        sharing = self._ranks_per_socket(rank)
        return base * sharing / calibration.CPU_ADAM_SHARE_EFFICIENCY

    def _record_cpu_work(self, rank: int, step: CpuWorkStep,
                         start: float, end: float) -> None:
        self.spans.append(Span(rank, Lane.HOST_IO, KernelKind.CPU_OPTIMIZER,
                               step.name, start, end))
        self.spans.append(Span(rank, Lane.COMPUTE, KernelKind.IDLE,
                               f"wait:{step.name}", start, end))
        # Charge the streamed optimizer bytes to the socket's DRAM channels.
        node = self.cluster.node_of_rank(rank)
        socket = self.cluster.gpu(rank).socket_index or 0
        link = self.cluster.topology.link_between(
            node.cpus[socket].name, node.drams[socket].name
        )
        link.ledger.record(start, end, step.num_params * CPU_ADAM_BYTES_PER_PARAM)
