"""Discrete-event simulation kernel.

A minimal, dependency-free engine in the style of SimPy: *processes* are
Python generators that ``yield`` awaitable events — :class:`Timeout`,
manually-triggered :class:`SimEvent`, :class:`AllOf`/:class:`AnyOf`
combinators, or other processes.  The engine advances a virtual clock and
resumes processes as their awaited events fire.

The training executor (:mod:`repro.runtime.executor`) runs one process per
GPU rank plus helper processes for offload engines; the fluid-flow network
(:mod:`repro.sim.flows`) schedules flow-completion events on the same
engine.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..errors import SimulationError
from ..units import Seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sanitizer import ScheduleSanitizer


class TieOrder:
    """Policy ordering callbacks scheduled at the *same* timestamp.

    Events sharing a simulated instant have no defined mutual order: the
    engine's FIFO default (insertion ``seq``) is one legal schedule among
    many, and a correct simulation must produce the same physics under any
    of them.  The determinism sanitizer's perturbation differ
    (:mod:`repro.analysis.determinism.differ`) reruns a configuration under
    the alternates below and field-diffs the results; divergence is a
    confirmed scheduling race.

    ``key(seq)`` returns the secondary sort key used between equal
    timestamps; ``seq`` itself stays in the heap tuple as the final
    tie-breaker so every order is total and reproducible.
    """

    name = "fifo"

    def key(self, seq: int) -> float:
        return 0.0


class ReversedTies(TieOrder):
    """Run same-timestamp callbacks in reverse insertion order."""

    name = "reversed"

    def key(self, seq: int) -> float:
        return float(-seq)


class SeededTies(TieOrder):
    """Permute same-timestamp callbacks with a seeded PRNG.

    The key derives from ``seed`` and ``seq`` only (never ``hash()`` or
    ``id()``), so one seed always produces the same legal permutation.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.name = f"seeded[{self.seed}]"

    def key(self, seq: int) -> float:
        return random.Random(self.seed * 1_000_003 + seq).random()


class BaseEvent:
    """Something a process can wait on.

    An event fires at most once; at that point its ``value`` becomes
    available and all registered callbacks run.  Processes register
    themselves as callbacks when they yield an event.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: List[Callable[["BaseEvent"], None]] = []
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "BaseEvent":
        """Fire the event now, delivering ``value`` to waiters."""
        if self.triggered:
            raise SimulationError("event has already been triggered")
        self.triggered = True
        self.value = value
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
        return self

    def add_callback(self, callback: Callable[["BaseEvent"], None]) -> None:
        if self.triggered:
            # Fire-and-forget: deliver immediately on the current turn.
            callback(self)
        else:
            self.callbacks.append(callback)


class SimEvent(BaseEvent):
    """A bare event triggered explicitly by simulation code."""


class Timeout(BaseEvent):
    """An event that fires ``delay`` seconds after creation."""

    def __init__(self, engine: "Engine", delay: Seconds, value: Any = None) -> None:
        super().__init__(engine)
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.delay = delay
        engine.schedule_at(engine.now + delay, self.succeed, value)


class AllOf(BaseEvent):
    """Fires when every child event has fired; value is the list of values."""

    def __init__(self, engine: "Engine", events: Iterable[BaseEvent]) -> None:
        super().__init__(engine)
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            engine.schedule_at(engine.now, self.succeed, [])
            return
        for event in self._children:
            event.add_callback(self._child_fired)

    @property
    def num_children(self) -> int:
        return len(self._children)

    @property
    def pending_children(self) -> List[BaseEvent]:
        """Children that have not fired yet (liveness diagnostics)."""
        return [child for child in self._children if not child.triggered]

    def _child_fired(self, _event: BaseEvent) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.succeed([child.value for child in self._children])


class AnyOf(BaseEvent):
    """Fires when the first child event fires; value is that child's value."""

    def __init__(self, engine: "Engine", events: Iterable[BaseEvent]) -> None:
        super().__init__(engine)
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for event in self._children:
            event.add_callback(self._child_fired)

    @property
    def num_children(self) -> int:
        return len(self._children)

    def _child_fired(self, event: BaseEvent) -> None:
        if self.triggered:
            return
        # Detach from the losing children: without this, a later succeed()
        # on a loser still reaches the already-triggered combinator, and
        # liveness diagnostics would see stale waiter callbacks on events
        # nothing is actually waiting for.
        for child in self._children:
            if child is not event and not child.triggered:
                try:
                    child.callbacks.remove(self._child_fired)
                except ValueError:
                    pass
        self.succeed(event.value)


class BatchHandler:
    """A schedulable callback whose same-timestamp runs may be folded.

    ``single(*args)`` handles one scheduled occurrence.  ``fold(batch)``
    receives the argument tuples of a *run* of occurrences popped
    back-to-back at one timestamp and must be observably equivalent to
    calling ``single`` on each in order.  The engine only folds adjacent
    pops of the same handler instance, so nothing else executes between
    the folded occurrences — that adjacency is exactly what makes the
    equivalence a local contract of the handler rather than a property
    of the whole schedule.

    The flow network registers its activation path as a ``BatchHandler``
    so same-instant activations of flows and flow groups cost one
    settle/reallocate round instead of one each (see
    :meth:`repro.sim.flows.FlowNetwork._activate_batch`).
    """

    __slots__ = ("single", "fold", "__name__", "__qualname__")

    def __init__(self, single: Callable[..., None],
                 fold: Callable[[List[Tuple[Any, ...]]], None]) -> None:
        self.single = single
        self.fold = fold
        # Deterministic labels for sanitizer/liveness diagnostics (the
        # default repr embeds a memory address).
        self.__name__ = getattr(single, "__name__", "batch_handler")
        self.__qualname__ = getattr(single, "__qualname__", self.__name__)

    def __call__(self, *args: Any) -> None:
        self.single(*args)


ProcessGenerator = Generator[BaseEvent, Any, Any]


class Process(BaseEvent):
    """A running generator-based process.

    The process's generator yields events; when an awaited event fires the
    generator is resumed with the event's value.  The Process itself is an
    event that fires with the generator's return value, so processes can
    wait on each other.
    """

    def __init__(self, engine: "Engine", generator: ProcessGenerator,
                 name: str = "") -> None:
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: the event this process is currently suspended on, or None while
        #: runnable/finished — what the liveness diagnostics report when a
        #: run ends with this process still pending.
        self.waiting_on: Optional[BaseEvent] = None
        engine.register_process(self)
        engine.schedule_at(engine.now, self._resume, None)

    def _resume(self, send_value: Any) -> None:
        self.waiting_on = None
        try:
            target = self.generator.send(send_value)
        except StopIteration as stop:
            del self.engine._processes[self]
            self.succeed(stop.value)
            return
        if not isinstance(target, BaseEvent):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, not an event"
            )
        self.waiting_on = target
        target.add_callback(lambda event: self._resume(event.value))


class Engine:
    """The event loop: a priority queue of (time, tie_key, seq, callback).

    ``tie_order`` perturbs the order of same-timestamp callbacks (see
    :class:`TieOrder`); the default is FIFO by insertion ``seq``.  An
    attached :class:`~repro.sim.sanitizer.ScheduleSanitizer` observes every
    popped callback and the shared resources it touches.
    """

    #: Class-level switch for same-timestamp batch folding; differential
    #: tests flip it off to compare folded vs. unfolded execution.
    fold_events = True

    def __init__(self, tie_order: Optional[TieOrder] = None) -> None:
        self.now: Seconds = 0.0
        self._queue: List[
            Tuple[float, float, int, Callable[..., None], Tuple[Any, ...]]
        ] = []
        self._counter = itertools.count()
        self._processed = 0
        self._folded = 0
        #: unfinished processes in start order; a finished one is dropped
        #: so it does not keep its run alive
        self._processes: Dict["Process", None] = {}
        self._start_hooks: List[Callable[["Engine"], None]] = []
        self.tie_order = tie_order if tie_order is not None else TieOrder()
        #: opt-in schedule sanitizer; None keeps the hot path untouched
        self.sanitizer: Optional["ScheduleSanitizer"] = None

    def note_touch(self, resource: str) -> None:
        """Tell the attached sanitizer the current callback touched a
        shared resource (a link ledger, the flow allocator, the fault
        injector).  No-op without a sanitizer."""
        if self.sanitizer is not None:
            self.sanitizer.touch(resource)

    def register_process(self, process: "Process") -> None:
        self._processes[process] = None

    def add_start_hook(self, hook: Callable[["Engine"], None]) -> None:
        """Register a callback invoked once when :meth:`run` first drains.

        This is how external subsystems arm themselves against a run they
        did not build: the fault injector (:mod:`repro.faults`) uses it to
        schedule its fault apply/revert callbacks onto the queue at the
        moment the simulation actually starts, whatever ``now`` is then.
        """
        self._start_hooks.append(hook)

    @property
    def processes(self) -> Tuple["Process", ...]:
        """Every process started on this engine that has not finished,
        in start order."""
        return tuple(self._processes)

    # -- scheduling primitives -------------------------------------------------
    def schedule_at(self, time: Seconds, callback: Callable[..., None],
                    *args: Any) -> None:
        if time < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        seq = next(self._counter)
        heapq.heappush(
            self._queue,
            (max(time, self.now), self.tie_order.key(seq), seq, callback, args),
        )

    # -- user-facing factories ------------------------------------------------
    def timeout(self, delay: Seconds, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> SimEvent:
        return SimEvent(self)

    def all_of(self, events: Iterable[BaseEvent]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[BaseEvent]) -> AnyOf:
        return AnyOf(self, events)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        return Process(self, generator, name)

    # -- execution ---------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Callbacks executed, counting each folded occurrence.

        Folded batches count at their original multiplicity (a batch of
        N scheduled occurrences dispatched once still adds N), and so
        does a callback that stands for several (:meth:`fold_occurrences`),
        so the events/sec trajectory in ``benchmarks/`` stays
        apples-to-apples across the batching change.
        """
        return self._processed

    @property
    def events_folded(self) -> int:
        """Scheduled occurrences absorbed into batch dispatches.

        A batch of N adds N-1 here (one dispatch stood for N pops).
        """
        return self._folded

    def fold_occurrences(self, extra: int) -> None:
        """Count ``extra`` more occurrences folded into the running
        dispatch.

        A callback that does the work of ``extra + 1`` scheduled events
        counts at that multiplicity, as a folded batch does: a flow
        group's one activation stands for one per member.
        """
        self._processed += extra
        self._folded += extra

    def peek(self) -> Optional[Seconds]:
        """Time of the next scheduled callback, or None when idle."""
        return self._queue[0][0] if self._queue else None

    def step(self) -> None:
        """Run the next callback (or folded batch), advancing the clock."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        time, _key, seq, callback, args = heapq.heappop(self._queue)
        self.now = time
        # Fold an adjacent same-timestamp run of the same BatchHandler
        # into one dispatch.  Sanitized runs never fold: the sanitizer
        # must observe every scheduled callback individually, and its
        # unbatched execution is the reference the batched path is
        # differentially tested against.
        queue = self._queue
        if (self.fold_events and self.sanitizer is None
                and type(callback) is BatchHandler and queue
                and queue[0][0] == time and queue[0][3] is callback):
            batch = [args]
            while queue and queue[0][0] == time and queue[0][3] is callback:
                batch.append(heapq.heappop(queue)[4])
            self._processed += len(batch)
            self._folded += len(batch) - 1
            callback.fold(batch)
            return
        self._processed += 1
        if self.sanitizer is None:
            callback(*args)
        else:
            self.sanitizer.begin_callback(time, seq, callback)
            try:
                callback(*args)
            finally:
                self.sanitizer.end_callback()

    def run(self, until: Optional[float] = None,
            max_events: int = 50_000_000) -> float:
        """Drain the queue (optionally stopping at simulated time ``until``).

        Returns the final simulated time.  ``max_events`` guards against
        runaway schedules.
        """
        if self._start_hooks:
            hooks, self._start_hooks = self._start_hooks, []
            for hook in hooks:
                hook(self)
        budget = max_events
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self.now = until
                return self.now
            if budget <= 0:
                raise SimulationError(
                    f"exceeded max_events={max_events} at t={self.now}"
                )
            before = self._processed
            self.step()
            budget -= self._processed - before
        if until is not None:
            self.now = max(self.now, until)
        return self.now
