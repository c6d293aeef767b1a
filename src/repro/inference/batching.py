"""Token-level batch scheduling: the serving analog of the Executor.

:class:`ServingScheduler` runs as a DES generator process on a shared
(or private) :class:`~repro.sim.engine.Engine`, exactly like
:meth:`repro.runtime.executor.Executor.execute` does for training: it
yields timeouts for compute phases and collective completion events for
the tensor-parallel all-reduces, so serving traffic contends for the
same NVLink/NIC fabric as any co-scheduled training job.

The loop alternates three actions:

1. **Admission** — pull FIFO from the waiting queue while the policy
   allows: ``continuous`` admits at every step boundary, ``static``
   only into an empty batch.  A request is admitted only if the batch
   stays within ``max_batch_requests`` / ``max_batch_tokens`` *and* the
   KV cache pre-check (:meth:`~repro.inference.kvcache.KvCache.fits`)
   passes — the reservation is taken at admission, so decode can never
   OOM mid-flight.
2. **Prefill** — newly admitted prompts run one forward pass each
   (compute, then the per-pass TP all-reduces).  The request's first
   token lands at the end of prefill: that timestamp is its TTFT.
3. **Decode** — one batched step generates one token for every running
   request (roofline compute, then one fused pass of TP all-reduces
   over the batch's activations).  Finished requests release their KV
   reservation immediately, freeing admission room for the next step.

Starting a pass's TP all-reduce returns its completion event, which
the phase yields directly; the trace's collective sink records the
collective from that event's callback, which runs just before the
scheduler resumes.

Determinism: the waiting queue is FIFO over the submit order (arrival
times are pre-generated and scheduled by the service), iteration is
over lists, and the scheduler owns no RNG at all — metrics are
tie-order invariant by construction, which the differ-based tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..collectives.nccl import NcclCommunicator
from ..collectives.primitives import CollectiveKind, CollectiveOp
from ..errors import SimulationError
from ..sim.engine import BaseEvent, Engine
from ..trace.model import KernelKind, Lane, Span
from .costmodel import PhaseCostModel
from .kvcache import KvCache
from .requests import Request


@dataclass
class RequestRecord:
    """One request's lifecycle through the server."""

    request: Request
    admitted_at: Optional[float] = None
    first_token_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: tokens produced by decode steps (prefill produces the first
    #: output token, so the decode target is ``output_tokens - 1``)
    decoded_tokens: int = 0

    @property
    def name(self) -> str:
        return self.request.name

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    @property
    def queue_wait_s(self) -> float:
        if self.admitted_at is None:
            return 0.0
        return self.admitted_at - self.request.time

    @property
    def ttft_s(self) -> Optional[float]:
        """Time to first token: arrival to end of prefill."""
        if self.first_token_at is None:
            return None
        return self.first_token_at - self.request.time

    @property
    def tpot_s(self) -> Optional[float]:
        """Time per output token over the decode phase."""
        if self.finished_at is None or self.first_token_at is None:
            return None
        produced = self.request.output_tokens - 1
        if produced <= 0:
            return 0.0
        return (self.finished_at - self.first_token_at) / produced

    @property
    def context_tokens(self) -> int:
        """KV-resident context for the next decode step."""
        return self.request.prompt_tokens + self.decoded_tokens


@dataclass
class ServingStats:
    """What one :meth:`ServingScheduler.serve` pass measured."""

    completed: int = 0
    prefill_steps: int = 0
    decode_steps: int = 0
    decode_tokens: int = 0
    max_active_requests: int = 0
    max_batch_tokens: int = 0
    spans: List[Span] = field(default_factory=list)


class ServingScheduler:
    """Continuous/static batching over one tensor-parallel instance."""

    def __init__(self, engine: Engine, cost: PhaseCostModel,
                 kvcache: KvCache, *,
                 comm: Optional[NcclCommunicator],
                 batching: str,
                 max_batch_tokens: int,
                 max_batch_requests: int,
                 span_ranks: Sequence[int] = (),
                 collective_sink=None,
                 tag: str = "") -> None:
        self.engine = engine
        self.cost = cost
        self.kvcache = kvcache
        self.comm = comm
        self.batching = batching
        self.max_batch_tokens = max_batch_tokens
        self.max_batch_requests = max_batch_requests
        #: global ranks compute spans are attributed to (trace only)
        self.span_ranks = tuple(span_ranks)
        #: recorder-compatible ``collective_phase`` sink (trace only)
        self.collective_sink = collective_sink
        self.tag = tag
        self.stats = ServingStats()
        self._waiting: List[RequestRecord] = []
        self._active: List[RequestRecord] = []
        self._prefill: List[RequestRecord] = []
        self._wakeup = engine.event()
        #: records of the current :meth:`serve` pass not yet finished
        self._unfinished = 0

    # -- arrival callback ------------------------------------------------------
    def submit(self, record: RequestRecord) -> None:
        """Engine callback: one request hits the server now."""
        self._waiting.append(record)
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    # -- admission -------------------------------------------------------------
    def _batch_tokens(self) -> int:
        return sum(record.request.total_tokens for record in self._active)

    def _admit(self) -> None:
        if self.batching == "static" and self._active:
            return
        while self._waiting:
            record = self._waiting[0]
            tokens = record.request.total_tokens
            if len(self._active) >= self.max_batch_requests:
                return
            if self._batch_tokens() + tokens > self.max_batch_tokens:
                return
            if not self.kvcache.fits(tokens):
                return
            self._waiting.pop(0)
            self.kvcache.reserve(record.name, tokens)
            record.admitted_at = self.engine.now
            self._active.append(record)
            self._prefill.append(record)
            self.stats.max_active_requests = max(
                self.stats.max_active_requests, len(self._active))
            self.stats.max_batch_tokens = max(
                self.stats.max_batch_tokens, self._batch_tokens())

    # -- phases ----------------------------------------------------------------
    def _emit_compute_span(self, name: str, start: float, end: float) -> None:
        if not self.span_ranks or end <= start:
            return
        self.stats.spans.extend(
            Span(rank, Lane.COMPUTE, KernelKind.GEMM,
                 f"{self.tag}{name}", start, end)
            for rank in self.span_ranks
        )

    def _all_reduce(self, payload: float,
                    launch_count: int) -> Optional[BaseEvent]:
        """Start the TP all-reduce for one (possibly fused) pass; its
        completion event, or None when there is nothing to reduce."""
        comm = self.comm
        if comm is None or comm.size == 1 or payload <= 0:
            return None
        start = self.engine.now
        done = comm.run(
            CollectiveOp(CollectiveKind.ALL_REDUCE, payload, comm.size),
            launch_count=launch_count,
        )
        sink = self.collective_sink
        if sink is not None:
            # Comm name and ranks are job-local; a cluster-mode sink
            # (``_JobCollectives``) prefixes the job id and maps ranks
            # to the shared machine before recording.
            done.add_callback(lambda _: sink.collective_phase(
                "tp", 0, "all_reduce", payload, launch_count,
                tuple(range(comm.size)), start, self.engine.now,
            ))
        return done

    def _finish(self, record: RequestRecord) -> None:
        record.finished_at = self.engine.now
        self.kvcache.release(record.name)
        self._active.remove(record)
        self.stats.completed += 1
        self._unfinished -= 1

    def _prefill_phase(self):
        batch, self._prefill = self._prefill, []
        compute_s = sum(self.cost.prefill_time(record.request.prompt_tokens)
                        for record in batch)
        start = self.engine.now
        yield self.engine.timeout(compute_s)
        self._emit_compute_span(
            f"prefill[{len(batch)}]", start, self.engine.now)
        done = self._all_reduce(
            self.cost.activation_payload(
                sum(record.request.prompt_tokens for record in batch)),
            self.cost.all_reduces_per_pass * len(batch))
        if done is not None:
            yield done
        self.stats.prefill_steps += 1
        for record in batch:
            record.first_token_at = self.engine.now
            if record.request.output_tokens == 1:
                self._finish(record)

    def _decode_phase(self):
        batch = list(self._active)
        compute_s = self.cost.decode_step_time(
            [record.context_tokens for record in batch])
        start = self.engine.now
        yield self.engine.timeout(compute_s)
        self._emit_compute_span(
            f"decode[{len(batch)}]", start, self.engine.now)
        done = self._all_reduce(self.cost.activation_payload(len(batch)),
                                self.cost.all_reduces_per_pass)
        if done is not None:
            yield done
        self.stats.decode_steps += 1
        self.stats.decode_tokens += len(batch)
        for record in batch:
            record.decoded_tokens += 1
            if record.decoded_tokens >= record.request.output_tokens - 1:
                self._finish(record)

    # -- the serving loop ------------------------------------------------------
    def serve(self, records: Sequence[RequestRecord], *,
              should_stop: Optional[Callable[[], bool]] = None,
              stop_event=None):
        """Generator process: serve every record, or stop early.

        ``records`` is the full submission set for this pass; arrivals
        are delivered via :meth:`submit` callbacks the caller schedules.
        ``should_stop``/``stop_event`` support cooperative preemption on
        the shared cluster (checked at step boundaries; the event lets
        an *idle* server wake up for its own preemption).  On early
        stop, every live KV reservation is released before returning.
        """
        engine = self.engine
        self._unfinished = sum(1 for record in records if not record.done)

        def stopped() -> bool:
            return should_stop is not None and should_stop()

        while not stopped():
            if not self._unfinished:
                break
            self._admit()
            if self._prefill:
                yield from self._prefill_phase()
            elif self._active:
                yield from self._decode_phase()
            else:
                if self._waiting:
                    # Admission is blocked (should be impossible with an
                    # empty batch given the service's admission-liveness
                    # validation; kept as a loud backstop, not a hang).
                    raise SimulationError(
                        f"serving deadlock: {len(self._waiting)} waiting "
                        f"requests but none admissible into an empty batch"
                    )
                # Idle: every arrived request is done; wait for the next
                # arrival (or preemption, on the shared cluster).
                self._wakeup = engine.event()
                waits = [self._wakeup]
                if stop_event is not None:
                    waits.append(stop_event)
                yield engine.any_of(waits)
        if stopped():
            for record in list(self._active):
                self.kvcache.release(record.name)
            self._active.clear()
            self._prefill.clear()
            self._waiting.clear()
        return self.stats
