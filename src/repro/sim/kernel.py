"""Discrete-event simulation kernel.

This module provides the event loop that every other subsystem of the
reproduction runs on: the simulated EC2 instances, the network, the
database servers, the replication threads and the emulated Cloudstone
users are all processes scheduled by a :class:`Simulator`.

The design follows the classic generator-based style (as popularized by
SimPy): a *process* is a Python generator that yields :class:`Event`
objects; the kernel resumes the generator when the yielded event fires.
Only the small subset of primitives needed by this project is
implemented, which keeps the kernel easy to reason about and to test
exhaustively.

Time is a ``float`` number of **seconds** since the start of the
simulation.  All components agree on this unit.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from ..obs.live.streams import NULL_LIVE
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import NULL_TRACER

__all__ = [
    "Event",
    "Timeout",
    "AnyOf",
    "Interrupt",
    "Process",
    "Simulator",
    "SimulationError",
]

_INF = float("inf")


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when :meth:`succeed`
    or :meth:`fail` is called (directly or via the scheduler), and then
    invokes its callbacks exactly once.  Processes wait on events by
    yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "_defused", "_owner")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._defused = False

    def __repr__(self) -> str:
        if not self._triggered:
            state = "pending"
        elif self._ok:
            state = "succeeded"
        else:
            state = f"failed({self._value!r})"
        return f"<{type(self).__name__} {state}>"

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has fired (successfully or not)."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True when the event fired via :meth:`succeed`."""
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with."""
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully, delivering ``value`` to waiters."""
        if self._triggered:
            raise SimulationError(
                f"succeed() on {self!r}: an event fires exactly once — "
                f"create a fresh event or guard on event.triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.sim._post(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event with an exception, re-raised in waiters."""
        if self._triggered:
            raise SimulationError(
                f"fail() on {self!r}: an event fires exactly once — "
                f"create a fresh event or guard on event.triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.sim._post(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise
        it at the top level when nobody waited on it."""
        self._defused = True

    # -- composition --------------------------------------------------------
    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:      # also rejects NaN
            raise SimulationError(
                f"timeout delay must be a number >= 0, got {delay!r}")
        # The hottest constructor: Event.__init__ is inlined, and the
        # event schedules itself.
        self.sim, self.callbacks, self._value = sim, [], value
        self._ok, self._triggered, self._defused = True, False, False
        if sim.profiler is not None:
            self._owner = owner = sim._owner_name()
            sim.profiler.on_schedule(owner)
        if delay == 0.0:
            sim._immediate.append((next(sim._counter), self))
        else:
            heappush(sim._heap, (sim._now + delay, next(sim._counter), self))


class AnyOf(Event):
    """Fires as soon as any child event fires, with the values of the
    children that have fired; a failing child fails it."""

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.triggered:
                self._child_fired(event)
            elif event.callbacks is not None:
                event.callbacks.append(self._child_fired)

    def _child_fired(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self.succeed({e: e._value for e in self.events
                      if e.triggered and e._ok})


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running process; also an event that fires when the process ends.

    The wrapped generator yields :class:`Event` instances.  When a
    yielded event fires the generator is resumed with the event's value
    (or the event's exception is thrown into it).
    """

    __slots__ = ("generator", "name", "_waiting_on", "_wake")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: Optional[str] = None):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        #: ``_resume`` bound once: the callback every wait registers.
        #: Dropped when the process finishes, so that a finished
        #: process is not kept alive by a reference to itself.
        self._wake = self._resume
        # Kick off the process via an immediately-scheduled init event.
        init = Event(sim)
        init.callbacks.append(self._wake)
        init.succeed()

    def __repr__(self) -> str:
        if not self._triggered:
            state = "alive"
        elif self._ok:
            state = "finished"
        else:
            state = f"failed({self._value!r})"
        return f"<Process {self.name!r} {state}>"

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._wake)
            except ValueError:
                pass
        self._waiting_on = None
        hurler = Event(self.sim)
        hurler.callbacks.append(self._wake)
        hurler.fail(Interrupt(cause))

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Re-enter the generator with ``event``'s outcome: its value
        sent on success, its exception thrown on failure."""
        self._waiting_on = None
        if not event._ok:
            event._defused = True
        if self._triggered:
            return  # already finished (e.g. interrupt raced completion)
        sim = self.sim
        if sim.sanitizer is not None:
            sim.sanitizer.on_resume(self)
        # Still set while succeed()/fail() below schedule the exit, so
        # the profiler charges that event to this process.
        sim._active_process = self
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            self._wake = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._wake = None
            self.fail(exc)
            return
        finally:
            sim._active_process = None
        if not isinstance(target, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded {target!r}, not an Event")
            self.generator.close()
            self._wake = None
            self.fail(exc)
            return
        if target.callbacks is None:
            # Already processed: resume immediately via a fresh event so
            # ordering stays deterministic.
            relay = Event(self.sim)
            relay.callbacks.append(self._wake)
            if target._ok:
                relay.succeed(target._value)
            else:
                target.defuse()
                relay.fail(target._value)
            self._waiting_on = relay
        else:
            target.callbacks.append(self._wake)
            self._waiting_on = target


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(5.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 5.0 and proc.value == "done"
    """

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        #: Events due *now* (zero-delay schedules and just-triggered
        #: posts) bypass the heap: they would land at the top anyway,
        #: so a FIFO deque serves them in O(1) instead of O(log n).
        #: Invariant: every entry is due at exactly ``_now`` — the
        #: clock cannot advance while the deque is non-empty.
        self._immediate: deque[tuple[int, Event]] = deque()
        self._counter = itertools.count()
        self._active_process: Optional[Process] = None
        #: Observability hooks (see :mod:`repro.obs`).  The defaults
        #: are no-ops; the scheduling/step hot path pays only an
        #: ``is not None`` guard for the profiler, and instrumentation
        #: sites elsewhere pay a guard or a no-op call.
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        self.profiler = None
        self.live = NULL_LIVE
        #: Optional race sanitizer (see repro.analysis.race.sanitizer);
        #: when set, every process resumption bumps its epoch so the
        #: sanitizer can tell reads-before-yield from reads-after.
        self.sanitizer = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event factories -----------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event; fire it with ``succeed``/``fail``."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator,
                name: Optional[str] = None) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    # -- scheduling ------------------------------------------------------------
    def _owner_name(self) -> str:
        """Profiling attribution: the process scheduling right now."""
        process = self._active_process
        return process.name if process is not None else "<kernel>"

    def _post(self, event: Event) -> None:
        """Schedule a just-triggered event's callbacks to run now."""
        if self.profiler is not None:
            event._owner = owner = self._owner_name()
            self.profiler.on_schedule(owner)
        self._immediate.append((next(self._counter), event))

    # -- running ----------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event; raises IndexError when empty.

        Order is exact global ``(time, seq)`` order: the deque front
        always has the smallest sequence number among deque entries
        (FIFO over a monotonic counter), so the heap only wins when it
        holds a same-time event scheduled earlier.
        """
        immediate = self._immediate
        if immediate:
            heap = self._heap
            if heap and heap[0][0] <= self._now \
                    and heap[0][1] < immediate[0][0]:
                when, _seq, event = heappop(heap)
            else:
                _seq, event = immediate.popleft()
                when = self._now
        else:
            when, _seq, event = heappop(self._heap)
        if self.profiler is not None:
            # Attribute the clock advance this event causes to the
            # process that scheduled it; advances telescope, so the
            # per-owner sums decompose the final simulated time.
            self.profiler.on_execute(getattr(event, "_owner", "<kernel>"),
                                     when - self._now)
        self._now = when
        if not event._triggered:
            # A scheduled Timeout reaching the head of the heap fires now.
            event._triggered = True
            event._ok = True
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue is empty or ``until`` is reached.

        When ``until`` is given, the clock is advanced exactly to
        ``until`` even if the last event fires earlier.
        """
        if until is not None and not until >= self._now:   # NaN too
            raise SimulationError(
                f"cannot run until {until!r}: the clock is at {self._now!r}")
        heap, immediate = self._heap, self._immediate
        limit = _INF if until is None else until
        step = self.step
        # Entries due now never pass ``until``: the clock is at most it.
        while immediate or (heap and heap[0][0] <= limit):
            step()
        if until is not None and until > self._now:
            # Attribute the trailing idle advance (no event fires
            # between the last one and ``until``) so the profiler's
            # per-owner sums telescope to sim.now *exactly* — any
            # remaining unattributed residue then indicates a bug.
            if self.profiler is not None:
                self.profiler.on_execute("<idle>", until - self._now)
            self._now = until

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when empty."""
        if self._immediate:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")
