"""Schedule executor: runs a strategy's iteration schedule on the DES.

One simulated process per GPU rank interprets the strategy's
:mod:`~repro.parallel.schedule` steps:

* compute steps advance the rank's clock (the GPU is busy);
* collective steps rendezvous all ranks of the group, then run as flows
  through the :class:`~repro.collectives.nccl.NcclCommunicator`;
* host transfers and NVMe I/O become one flow launch each over the
  topology, so PCIe, xGMI, DRAM, and NVMe ledgers fill in automatically;
* CPU optimizer work charges the socket's DRAM channels.

The run produces iteration times, the Fig.-5-style rank-lane spans (a
plain list of :class:`~repro.trace.model.Span` that
:mod:`repro.trace.query` and :mod:`repro.trace.ascii` read), and fully
populated per-link bandwidth ledgers — everything the paper's
experiments need in a single pass.

The steps are fixed for the run, so the executor resolves each rank's
step list once, at construction, into a *rank program* of opcode
tuples.  A collective step resolves to its communicator, group index
and group, :class:`~repro.collectives.primitives.CollectiveOp` and
kernel kind; a blocking step to its ``wait:<key>`` idle-span name; a
host transfer to its span kind and routes: the GPU<->DRAM route, or each
NVMe stripe member's drive, route and PCIe link.  What changes in
simulated time is still read when a step launches: the straggler
multiplier, NVMe media bandwidth (``nvme_slow``), link capacities, and
the ring outage probe in
:meth:`~repro.collectives.nccl.NcclCommunicator.run`.

The executor builds and wires no instruments.  A run that wants a tie
order, the sanitizers or a trace gets its engine and flow network from
:class:`repro.sim.probes.RunProbes` and passes them in; the only hook
left here is ``collective_sink``, told of every collective phase (the
name and contract :class:`~repro.inference.batching.ServingScheduler`
uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

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
from ..hardware.link import Link
from ..hardware.nvme import NvmeDrive, Raid0Volume
from ..hardware.serdes import TrafficProfile
from ..hardware.topology import Route
from ..parallel.schedule import (
    CollectiveStep,
    ComputeStep,
    CpuWorkStep,
    HostTransferStep,
    IdleStep,
    IterationSchedule,
    Location,
    Step,
    WaitForStep,
    WaitPendingStep,
)
from ..sim.engine import BaseEvent, Engine
from ..sim.flows import FlowNetwork, Transfer
from ..sim.leaksan import LeakReport
from ..sim.sanitizer import SanitizerReport
from ..trace.model import Lane, Span
from .kernels import KernelKind, straggler_multiplier


@dataclass
class ExecutionResult:
    """Everything one simulated training run produced.

    ``spans`` holds one immutable :class:`~repro.trace.model.Span` tuple
    per recorded interval, appended as the run goes; the hybrid
    extrapolator appends shifted copies marked ``synthetic``.
    """

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


#: Rank-program opcodes, one per step type; each program entry is a tuple
#: led by one (laid out where :meth:`Executor._resolve` builds it).
(_COMPUTE, _COLLECTIVE, _WAIT_FOR, _WAIT_PENDING, _HOST_IO, _IDLE,
 _CPU_WORK) = range(7)


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
        lane, kernel, name = Lane.COMMUNICATION, self.kernel, str(self.op.kind)
        for rank in self.group:
            spans.append(Span(rank, lane, kernel, name, started_at, now))
        sink = self.executor.collective_sink
        if sink is not None:
            sink.collective_phase(
                self.comm_name, self.group_index, name,
                self.op.payload_bytes, self.launch_count,
                tuple(self.group), started_at, now,
            )
        self.event.succeed(None)


class _HostTransfer(NamedTuple):
    """One rank's host-transfer step with its routes resolved.

    :meth:`launch` reads the drives' media bandwidth and the links'
    capacities each time, because ``nvme_slow`` and link faults change
    them in simulated time.
    """

    #: the GPU<->DRAM route; None for NVMe I/O
    route: Optional[Route]
    #: ``(drive, route, pcie_link)`` per member of the rank's NVMe
    #: volume; empty for GPU<->DRAM
    stripes: Tuple[Tuple[NvmeDrive, Route, Link], ...]
    reading: bool
    #: the whole payload, or one stripe member's share of it
    num_bytes: float
    label: str

    def launch(self, network: FlowNetwork,
               profile: TrafficProfile) -> BaseEvent:
        if self.route is not None:
            return network.transfer(self.route, self.num_bytes,
                                    profile=profile, label=self.label)
        transfers: List[Transfer] = []
        for drive, route, pcie_link in self.stripes:
            if self.reading:
                media = (drive.effective_nand_read_bandwidth
                         * calibration.AIO_EFFICIENCY)
            else:
                media = (drive.effective_nand_write_bandwidth
                         * calibration.AIO_EFFICIENCY)
            # The drive's NAND media, not its PCIe x4 link, bounds
            # sustained swap traffic; scale the flow's pool consumption so
            # aggregate throughput stays at media rate no matter how many
            # ranks swap against the drive concurrently.
            multiplier = max(1.0, pcie_link.capacity_per_direction / media)
            transfers.append((route, self.num_bytes, multiplier, None))
        return network.launch(transfers, profile=profile, label=self.label)


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
        #: the current iteration's gates by ``(comm, group index, key)``
        self._gates: Dict[Tuple[str, int, str], _CollectiveGate] = {}
        self._communicators = self._build_communicators(internode_rate_efficiency)
        #: ``(rank, program)`` per rank, in rank order
        self._programs: List[Tuple[int, List[tuple]]] = [
            (rank, [self._resolve(rank, step)
                    for step in schedule.steps_by_rank[rank]])
            for rank in schedule.ranks
        ]

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

    def _resolve(self, rank: int, step: Step) -> tuple:
        """``step``'s entry in ``rank``'s program: what the step needs at
        launch that stays fixed for the run."""
        if isinstance(step, ComputeStep):
            return (_COMPUTE, step.kind, step.duration, step.name)
        if isinstance(step, CollectiveStep):
            group_index, group = (
                self.schedule.communicators[step.comm].group_of(rank))
            comm = self._communicators[(step.comm, group_index)]
            gate = (comm, CollectiveOp(step.kind, step.payload_bytes,
                                       comm.size),
                    step.kernel_kind, group, step.op_count, step.comm,
                    group_index)
            return (_COLLECTIVE, (step.comm, group_index, step.key), gate,
                    step.key, step.blocking, f"wait:{step.key}")
        if isinstance(step, WaitForStep):
            return (_WAIT_FOR, step.key, f"wait:{step.key}")
        if isinstance(step, WaitPendingStep):
            return (_WAIT_PENDING, f"wait:{step.name}")
        if isinstance(step, HostTransferStep):
            kind = (KernelKind.NVME_IO
                    if Location.NVME in (step.src, step.dst)
                    else KernelKind.HOST_TRANSFER)
            return (_HOST_IO, self._host_transfer(rank, step), step.blocking,
                    kind, step.name, f"wait:{step.name}")
        if isinstance(step, IdleStep):
            return (_IDLE, step.duration, step.name)
        if isinstance(step, CpuWorkStep):
            node = self.cluster.node_of_rank(rank)
            socket = self.cluster.gpu(rank).socket_index or 0
            dram_link = self.cluster.topology.link_between(
                node.cpus[socket].name, node.drams[socket].name
            )
            return (_CPU_WORK, self._cpu_work_duration(rank, step),
                    step.name, f"wait:{step.name}", dram_link,
                    step.num_params * CPU_ADAM_BYTES_PER_PARAM)
        raise SimulationError(f"unknown step type {type(step).__name__}")

    def _host_transfer(self, rank: int,
                       step: HostTransferStep) -> _HostTransfer:
        """``step``'s flows as one launch: one flow between the rank's GPU
        and DRAM, or one per member drive of its NVMe volume."""
        gpu = self.cluster.gpu(rank).name
        dram = self.cluster.dram_for_rank(rank).name
        topology = self.cluster.topology
        label = self.flow_tag + step.name
        # GPU and DRAM are the rank's own; NVMe resolves per stripe member
        src = _rank_endpoint(step.src, gpu, dram)
        dst = _rank_endpoint(step.dst, gpu, dram)
        if src is not None and dst is not None:
            return _HostTransfer(topology.route(src, dst), (), False,
                                 step.payload_bytes, label)
        # One endpoint is the rank's NVMe swap volume: stripe the payload
        # across member drives, capping each flow at the drive's media
        # bandwidth under the aio layer.
        volume = self.swap_volumes.get(rank)
        if volume is None:
            raise ConfigurationError(
                f"rank {rank} performs NVMe I/O but has no swap volume"
            )
        reading = step.src is Location.NVME
        stripes = []
        for drive in volume.drives:
            if reading:
                route = topology.route(drive.device.name, dram)
            else:
                route = topology.route(dram, drive.device.name)
            pcie_link = route.links[0] if reading else route.links[-1]
            stripes.append((drive, route, pcie_link))
        return _HostTransfer(None, tuple(stripes), reading,
                             step.payload_bytes / len(volume.drives), label)

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
                    self._rank_process(rank, program),
                    name=f"{self.flow_tag}rank{rank}/it{iteration}",
                )
                for rank, program in self._programs
            ]
            yield self.engine.all_of(processes)
            # Every rank has finished, so every gate of the iteration has
            # fired and sees no more arrivals; each holds the executor, a
            # cycle that would outlive the iteration.
            self._gates.clear()
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
    def _rank_process(self, rank: int, program: List[tuple]):
        engine = self.engine
        spans = self.spans
        faults = self.faults
        pending: List[BaseEvent] = []
        # this iteration's collective completion events, by step key
        keyed: Dict[str, BaseEvent] = {}
        for op in program:
            code = op[0]
            if code == _COMPUTE:
                _, kind, duration, name = op
                start = engine.now
                if faults is not None:
                    # Sampled at kernel launch: a straggler window opening
                    # mid-kernel stretches the *next* kernel, matching how
                    # a clock drop only affects instructions not yet run.
                    duration *= straggler_multiplier(
                        kind, faults.compute_multiplier(rank)
                    )
                yield engine.timeout(duration)
                spans.append(Span(rank, Lane.COMPUTE, kind, name, start,
                                  engine.now))
            elif code == _COLLECTIVE:
                _, gate_key, gate_args, key, blocking, wait = op
                event = self._join_collective(gate_key, gate_args)
                keyed[key] = event
                if blocking:
                    start = engine.now
                    yield event
                    self._record_idle(rank, start, wait)
                else:
                    pending.append(event)
            elif code == _WAIT_FOR:
                _, key, wait = op
                event = keyed.get(key)
                if event is None:
                    raise SimulationError(
                        f"rank {rank} waits for unknown key {key!r}"
                    )
                if not event.triggered:
                    start = engine.now
                    yield event
                    self._record_idle(rank, start, wait)
                if event in pending:
                    pending.remove(event)
            elif code == _WAIT_PENDING:
                if pending:
                    start = engine.now
                    yield engine.all_of(pending)
                    pending = []
                    self._record_idle(rank, start, op[1])
            elif code == _HOST_IO:
                _, transfer, blocking, kind, name, wait = op
                event = transfer.launch(self.network, self.traffic_profile)
                if blocking:
                    start = engine.now
                    yield event
                    spans.append(Span(rank, Lane.HOST_IO, kind, name, start,
                                      engine.now))
                    self._record_idle(rank, start, wait)
                else:
                    pending.append(event)
            elif code == _IDLE:
                _, duration, name = op
                start = engine.now
                yield engine.timeout(duration)
                spans.append(Span(rank, Lane.COMPUTE, KernelKind.IDLE, name,
                                  start, engine.now))
            else:  # _CPU_WORK
                _, duration, name, wait, dram_link, num_bytes = op
                start = engine.now
                yield engine.timeout(duration)
                end = engine.now
                spans.append(Span(rank, Lane.HOST_IO,
                                  KernelKind.CPU_OPTIMIZER, name, start, end))
                spans.append(Span(rank, Lane.COMPUTE, KernelKind.IDLE, wait,
                                  start, end))
                # Charge the streamed optimizer bytes to the socket's DRAM
                # channels.
                dram_link.ledger.record(start, end, num_bytes)
        if pending:
            start = engine.now
            yield engine.all_of(pending)
            self._record_idle(rank, start, "wait:drain_pending")

    # -- step helpers -------------------------------------------------------------
    def _record_idle(self, rank: int, start: float, name: str) -> None:
        now = self.engine.now
        if now > start:
            self.spans.append(Span(rank, Lane.COMPUTE, KernelKind.IDLE,
                                   name, start, now))

    def _join_collective(self, gate_key: Tuple[str, int, str],
                         gate_args: tuple) -> BaseEvent:
        engine = self.engine
        if engine.sanitizer is not None:
            engine.note_touch(f"stream:{gate_key[0]}[{gate_key[1]}]")
        gate = self._gates.get(gate_key)
        if gate is None:
            gate = self._gates[gate_key] = _CollectiveGate(self, *gate_args)
        return gate.arrive()


def _rank_endpoint(location: Location, gpu: str, dram: str) -> Optional[str]:
    """The device ``location`` names for a rank whose GPU is ``gpu`` and
    whose DRAM is ``dram``; None for NVMe."""
    if location is Location.GPU:
        return gpu
    if location is Location.DRAM:
        return dram
    return None
