"""The scheduler daemon: a process on the shared DES engine.

The daemon owns the cluster's *allocation* state (which GPUs are free,
which job holds what) and makes every scheduling decision; actually
executing a job body is the service's problem (dependency injection via
the ``launch`` callback keeps this module free of workload imports).

Decisions, in order of application:

* **Queue ordering** — waiting jobs sort by effective priority
  (base + ``aging_rate`` x queued seconds, so old jobs rise), then the
  policy key (FIFO: submission order; SJF: size-weighted iteration
  count; memory-aware: smallest memory footprint first), then
  submission order as the final deterministic tiebreak.
* **Packing** — best-fit: an intra-node job takes the feasible node
  with the *fewest* free GPUs (lowest index on ties, lowest-index GPUs
  within the node); a multi-node job takes the lowest-index fully-free
  nodes.  Only these two shapes exist (see :mod:`.views`).
* **Admission** — a job starts only if every memory pool its
  allocation touches has headroom for the job's plan (the same
  per-pool accumulation :func:`~repro.core.runner.apply_memory_plan`
  performs, checked against ``free_bytes`` first so a rejected job
  never partially charges shared pools).
* **Head-of-line semantics** — FIFO blocks behind the head job
  (strict arrival-order fairness); SJF and memory-aware skip over jobs
  that do not fit (greedy backfill).
* **Preemption** — when the top waiting job outranks running work by
  *base* priority (aging never grants preemption rights) and cannot be
  placed, the daemon plans the cheapest victim set (lowest base
  priority first, most recently started first within a priority),
  verifies on a scratch copy of the free lists that evicting exactly
  that set makes the allocation feasible, then requests cooperative
  preemption.  While the drain is in flight the freed capacity is
  *reserved*: no other job may start, so the beneficiary cannot be
  starved by backfill (and a beneficiary that still cannot start once
  the drain completes gives its reservation up rather than livelock).

Everything the daemon reads is engine-virtual time or seeded state —
no wall clock, no process-global RNG (the ``CLU0xx`` lints pin this).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..parallel.strategy import MemoryPlan
from ..sim.engine import BaseEvent, Engine
from ..units import GB
from .jobs import JobRecord, JobStore
from .views import ClusterView, NodeAllocation, pool_demand

#: Scheduling policies ``repro cluster run --policy`` accepts.
POLICIES = ("fifo", "sjf", "memory-aware")

#: Checkpoint/restore streaming rate per rank (all ranks write their
#: shard in parallel, so a job's checkpoint time is its *per-rank* state
#: over this rate).  Deliberately a round calibration constant: the cost
#: model only needs to make preemption expensive in proportion to state.
CHECKPOINT_BYTES_PER_S = 8 * GB

#: Admission slack so float accumulation never rejects an exact fit.
_EPSILON_BYTES = 1e-6


def checkpoint_seconds(plan: MemoryPlan) -> float:
    """Time to checkpoint (or restore) one rank's resident state."""
    return (plan.gpu_total + plan.cpu_total) / CHECKPOINT_BYTES_PER_S


class SchedulerDaemon:
    """Admission, packing, priorities, and preemption over the store.

    ``demand`` maps a record to its per-rank :class:`MemoryPlan`
    (memoized by the service); ``launch`` spawns the job body for a
    granted allocation.  The daemon itself runs as one engine process
    (:meth:`run`) and sleeps on a wakeup event between decisions.
    """

    def __init__(self, engine: Engine, cluster, store: JobStore, *,
                 policy: str = "fifo",
                 aging_rate: float = 0.0,
                 expected_jobs: int,
                 demand: Callable[[JobRecord], MemoryPlan],
                 launch: Callable[[JobRecord, ClusterView], None]) -> None:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {policy!r} (expected one of {POLICIES})"
            )
        self.engine = engine
        self.cluster = cluster
        self.store = store
        self.policy = policy
        self.aging_rate = aging_rate
        self.expected_jobs = expected_jobs
        self._demand = demand
        self._launch = launch
        #: per-node ascending free GPU indices
        self._free: List[List[int]] = [
            list(range(cluster.gpus_per_node))
            for _ in range(cluster.num_nodes)
        ]
        self._allocations: Dict[str, Tuple[NodeAllocation, ...]] = {}
        #: job id whose preemption drain has reserved the freed capacity
        self._reserved: Optional[str] = None
        #: victims asked to preempt that have not released yet
        self._draining: Dict[str, bool] = {}
        self._wakeup: Optional[BaseEvent] = None

    # -- engine process --------------------------------------------------------
    def run(self):
        """The daemon's generator body (``engine.process(daemon.run())``)."""
        while not (len(self.store.records) >= self.expected_jobs
                   and self.store.all_done()):
            self._dispatch()
            self._wakeup = self.engine.event()
            yield self._wakeup
            self._wakeup = None

    def wake(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed(None)

    # -- events from the service ----------------------------------------------
    def submit(self, record: JobRecord) -> None:
        self.wake()

    def job_finished(self, record: JobRecord) -> None:
        self._release(record)
        self.wake()

    def job_failed(self, record: JobRecord) -> None:
        self._release(record)
        self.wake()

    def job_preempted(self, record: JobRecord) -> None:
        self._draining.pop(record.job_id, None)
        self._release(record)
        self.wake()

    # -- queue ordering --------------------------------------------------------
    def _order_key(self, record: JobRecord, now: float):
        effective = (record.spec.priority
                     + self.aging_rate * (now - record.queued_at))
        if self.policy == "sjf":
            policy_key = record.spec.work_units
        elif self.policy == "memory-aware":
            plan = self._demand(record)
            policy_key = (plan.gpu_total + plan.cpu_total) * record.spec.gpus
        else:
            policy_key = 0.0
        return (-effective, policy_key, record.submit_index)

    # -- packing ---------------------------------------------------------------
    def _find_allocation(self, gpus: int,
                         free: Optional[List[List[int]]] = None
                         ) -> Optional[Tuple[NodeAllocation, ...]]:
        """Best-fit allocation of ``gpus`` on the (given) free lists."""
        if free is None:
            free = self._free
        per_node = self.cluster.gpus_per_node
        if gpus <= per_node:
            best: Optional[int] = None
            for node_index, available in enumerate(free):
                if len(available) >= gpus and (
                        best is None or len(available) < len(free[best])):
                    best = node_index
            if best is None:
                return None
            return ((best, tuple(free[best][:gpus])),)
        if gpus % per_node:
            return None  # rejected at validation; defensive here
        needed = gpus // per_node
        full = [node_index for node_index, available in enumerate(free)
                if len(available) == per_node]
        if len(full) < needed:
            return None
        return tuple((node_index, tuple(free[node_index]))
                     for node_index in full[:needed])

    def _fits_memory(self, record: JobRecord,
                     allocation: Tuple[NodeAllocation, ...]) -> bool:
        """Would the job's plan fit every pool this allocation touches?"""
        view = ClusterView(self.cluster, allocation)
        return all(
            pool.free_bytes + _EPSILON_BYTES >= amount
            for pool, amount in pool_demand(view, self._demand(record))
        )

    # -- allocation bookkeeping ------------------------------------------------
    def _take(self, record: JobRecord,
              allocation: Tuple[NodeAllocation, ...]) -> None:
        for node_index, gpu_indices in allocation:
            available = self._free[node_index]
            for gpu_index in gpu_indices:
                available.remove(gpu_index)
        self._allocations[record.job_id] = allocation

    def _release(self, record: JobRecord) -> None:
        allocation = self._allocations.pop(record.job_id, None)
        if allocation is None:
            return
        for node_index, gpu_indices in allocation:
            merged = sorted(self._free[node_index] + list(gpu_indices))
            self._free[node_index][:] = merged

    # -- dispatch --------------------------------------------------------------
    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            waiting = self.store.waiting()
            if not waiting:
                break
            now = self.engine.now
            ordered = sorted(waiting,
                             key=lambda r: self._order_key(r, now))
            for record in ordered:
                if (self._reserved is not None
                        and record.job_id != self._reserved):
                    continue  # capacity is draining for the beneficiary
                allocation = self._find_allocation(record.spec.gpus)
                if (allocation is not None
                        and self._fits_memory(record, allocation)):
                    if record.job_id == self._reserved:
                        self._reserved = None
                    self._start(record, allocation)
                    progress = True
                    break
                if record.job_id == self._reserved and not self._draining:
                    # Drain finished but the job still cannot start
                    # (e.g. memory headroom): give the reservation up
                    # rather than starve everyone behind it.
                    self._reserved = None
                    progress = True
                    break
                if self.policy == "fifo":
                    break  # head-of-line blocking
        self._maybe_preempt()

    def _start(self, record: JobRecord,
               allocation: Tuple[NodeAllocation, ...]) -> None:
        self._take(record, allocation)
        self.store.mark_started(record, self.engine.now)
        self._launch(record, ClusterView(self.cluster, allocation))

    # -- preemption ------------------------------------------------------------
    def _maybe_preempt(self) -> None:
        if self._reserved is not None or self._draining:
            return
        waiting = self.store.waiting()
        if not waiting:
            return
        now = self.engine.now
        top = min(waiting, key=lambda r: self._order_key(r, now))
        victims = self._plan_preemption(top)
        if victims is None:
            return
        self._reserved = top.job_id
        for victim in victims:
            self._draining[victim.job_id] = True
            victim.preempt_requested = True
            event = victim.preempt_event
            if event is not None and not event.triggered:
                event.succeed(None)
        if not self._draining:
            # succeed() resumes waiters synchronously, so a victim
            # parked directly on its preempt event (a serving loop
            # idling between requests) has already drained: its
            # job_preempted wake() found no waiting daemon.  Dispatch
            # again here rather than lose that wakeup forever.  The
            # recursion is bounded: _maybe_preempt early-returns while
            # ``_reserved`` is held.
            self._dispatch()

    def _plan_preemption(self, top: JobRecord
                         ) -> Optional[List[JobRecord]]:
        """The cheapest victim set that makes ``top`` placeable, if any.

        Eligibility is *base* priority only (aging raises a job in the
        queue but never lets it evict others).  Victims are taken lowest
        priority first; within a priority the most recently started job
        loses (least sunk work).  Feasibility is simulated on a scratch
        copy of the free lists before anything is asked to stop.
        """
        candidates = sorted(
            (record for record in self.store.running()
             if record.spec.priority < top.spec.priority),
            key=lambda r: (r.spec.priority,
                           -(r.started_at or 0.0),
                           -r.submit_index),
        )
        if not candidates:
            return None
        scratch = [list(available) for available in self._free]
        victims: List[JobRecord] = []
        for victim in candidates:
            for node_index, gpu_indices in self._allocations[victim.job_id]:
                scratch[node_index] = sorted(
                    scratch[node_index] + list(gpu_indices)
                )
            victims.append(victim)
            if self._find_allocation(top.spec.gpus, scratch) is not None:
                return victims
        return None
