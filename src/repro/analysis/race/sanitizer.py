"""Dynamic prong: a sim-time race sanitizer for instrumented objects.

Static RACE001 proves what *may* go wrong; the sanitizer watches what
*does*.  Chosen shared objects (the connection pool, the proxy's
routing table, replication positions, ...) get a shim subclass whose
``__getattribute__``/``__setattr__`` route reads and writes of the
instrumented fields through the sanitizer, tagged with the currently
active sim process and its *resumption epoch* (bumped by the kernel
hook in ``Process._step`` each time the process re-enters).

What gets reported — **stale write-back / lost update**, the dynamic
twin of RACE001: process A writes field F, and

1. A last read F in an *earlier* epoch (i.e. A yielded at least once
   since reading the value it is presumably acting on), and
2. F's version counter moved since that read (some other process
   wrote F in between).

Both conditions are required.  Condition 1 alone would flag every
poll loop (pollers re-read each epoch and never trip it); condition 2
alone would flag every unconflicted write.  A write with no prior
read by the writer is a *blind* write (initialisation, publication)
and is never a lost update.  This deliberately tighter-than-literal
semantics is what lets a correct drill run report-free, which the CI
sanitizer-smoke gate depends on.

Reports carry sim time, both process names, and the ``label.field``
path; each is also emitted as a ``race.stale_write`` instant span so
traces show where in the timeline the race sat.  Instrumentation
never changes scheduling or values — with zero reports, a sanitized
drill's recovery report is byte-identical to the unsanitized run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["RaceReport", "RaceSanitizer", "instrument_cluster"]


@dataclass(frozen=True)
class RaceReport:
    """One detected stale write-back."""

    time: float        # sim time of the stale write
    field_path: str    # "<label>.<field>", e.g. "pool.available"
    writer: str        # process performing the stale write
    other: str         # process whose intervening write is lost
    read_time: float   # sim time the writer last read the field
    message: str = ""

    def render(self) -> str:
        return (f"[t={self.time:.6f}] RACE {self.field_path}: "
                f"{self.writer!r} writes a value derived from its "
                f"read at t={self.read_time:.6f}, overwriting "
                f"{self.other!r}'s intervening update")


@dataclass
class _FieldState:
    """Version history of one instrumented field on one object."""

    version: int = 0
    last_writer: str = "<setup>"
    #: per-process last-read bookkeeping:
    #: name -> (epoch_at_read, version_at_read, sim_time_at_read)
    reads: dict = field(default_factory=dict)


class RaceSanitizer:
    """Opt-in dynamic race detector for the cooperative kernel.

    Usage::

        sanitizer = RaceSanitizer()
        sanitizer.attach(sim)            # installs the kernel hook
        sanitizer.instrument(pool, ("available", "busy"), "pool")
        ...run the simulation...
        for report in sanitizer.reports: ...
    """

    def __init__(self):
        self.sim = None
        self.reports: list[RaceReport] = []
        #: process name -> resumption epoch (monotone per process)
        self._epochs: dict = {}
        #: id(obj) -> {field -> _FieldState}
        self._state: dict = {}
        #: id(obj) -> (label, frozenset(fields)); also keeps the
        #: instrumented objects alive so ids stay unambiguous
        self._instrumented: dict = {}
        self._keepalive: list = []
        self._shim_classes: dict = {}

    # -- wiring ------------------------------------------------------------
    def attach(self, sim) -> "RaceSanitizer":
        """Install this sanitizer on ``sim`` (kernel resumption hook)."""
        self.sim = sim
        sim.sanitizer = self
        return self

    def on_resume(self, process) -> None:
        """Kernel hook: ``process`` is about to re-enter its generator."""
        self._epochs[process.name] = \
            self._epochs.get(process.name, 0) + 1

    # -- instrumentation ---------------------------------------------------
    def instrument(self, obj: Any, fields, label: str) -> Any:
        """Route reads/writes of ``fields`` on ``obj`` through the
        sanitizer by swapping in a shim subclass.  Returns ``obj``.

        Only works for ordinary (non-``__slots__``) classes; the
        object's behaviour is otherwise unchanged.
        """
        fields = frozenset(fields)
        shim = self._shim_class(type(obj))
        object.__setattr__(obj, "__class__", shim)
        self._instrumented[id(obj)] = (label, fields)
        self._keepalive.append(obj)
        states = self._state.setdefault(id(obj), {})
        for name in fields:
            states.setdefault(name, _FieldState())
        return obj

    def _shim_class(self, original: type) -> type:
        shim = self._shim_classes.get(original)
        if shim is not None:
            return shim
        sanitizer = self

        def __getattribute__(inner_self, name):
            value = object.__getattribute__(inner_self, name)
            entry = sanitizer._instrumented.get(id(inner_self))
            if entry is not None and name in entry[1]:
                sanitizer._on_read(inner_self, name)
            return value

        def __setattr__(inner_self, name, value):
            entry = sanitizer._instrumented.get(id(inner_self))
            if entry is not None and name in entry[1]:
                sanitizer._on_write(inner_self, name)
            object.__setattr__(inner_self, name, value)

        shim = type(original.__name__, (original,), {
            "__getattribute__": __getattribute__,
            "__setattr__": __setattr__,
            "__module__": original.__module__,
        })
        self._shim_classes[original] = shim
        return shim

    # -- event handlers ----------------------------------------------------
    def _active(self) -> Optional[str]:
        if self.sim is None:
            return None
        process = self.sim.active_process
        return process.name if process is not None else None

    def _on_read(self, obj, name: str) -> None:
        reader = self._active()
        if reader is None:
            return
        state = self._state[id(obj)].setdefault(name, _FieldState())
        state.reads[reader] = (self._epochs.get(reader, 0),
                               state.version, self.sim.now)

    def _on_write(self, obj, name: str) -> None:
        writer = self._active()
        state = self._state[id(obj)].setdefault(  # simtaint: blessed=object-identity-keys-never-serialized
            name, _FieldState())
        if writer is None:
            state.version += 1
            state.last_writer = "<setup>"
            return
        record = state.reads.get(writer)
        if record is not None:
            read_epoch, read_version, read_time = record
            stale = read_epoch < self._epochs.get(writer, 0)
            conflicted = read_version < state.version
            if stale and conflicted:
                self._report(obj, name, writer, state, read_time)
        state.version += 1
        state.last_writer = writer
        # The write consumes the read that informed it.  Without this
        # a blind writer (one that never reads the field, e.g. the SQL
        # thread publishing positions) would inherit a phantom read
        # from its own previous write and be flagged; a genuine lost
        # update needs a fresh read before the next stale write.
        state.reads.pop(writer, None)

    def _report(self, obj, name: str, writer: str,
                state: _FieldState, read_time: float) -> None:
        label = self._instrumented[id(obj)][0]  # simtaint: blessed=object-identity-keys-never-serialized
        report = RaceReport(
            time=self.sim.now,
            field_path=f"{label}.{name}",
            writer=writer,
            other=state.last_writer,
            read_time=read_time,
        )
        self.reports.append(report)
        tracer = getattr(self.sim, "tracer", None)
        if tracer is not None:
            tracer.instant(f"race.stale_write:{label}.{name}",
                           category="race", writer=writer,
                           other=state.last_writer,
                           read_time=read_time)

    # -- summaries ---------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready digest for CLI output."""
        return {
            "instrumented": sorted(
                label for label, _ in self._instrumented.values()),
            "reportCount": len(self.reports),
            "reports": [
                {"time": report.time,
                 "fieldPath": report.field_path,
                 "writer": report.writer,
                 "other": report.other,
                 "readTime": report.read_time}
                for report in self.reports],
        }


def instrument_cluster(sanitizer: RaceSanitizer, pool=None,
                       proxy=None, manager=None) -> None:
    """Instrument the canonical drill/experiment shared surfaces:
    the connection pool's counters, the proxy's routing table and the
    replication manager's master/slave membership plus every slave's
    replication positions — exactly the state the static inventory
    calls shared."""
    if pool is not None:
        sanitizer.instrument(
            pool, ("total_borrows", "total_wait_time", "timeouts"),
            "pool")
    if proxy is not None:
        sanitizer.instrument(
            proxy, ("master", "slaves", "_evicted", "_cursor",
                    "reads_routed", "writes_routed", "sticky_reads"),
            "proxy")
    if manager is not None:
        sanitizer.instrument(manager, ("master", "slaves"), "manager")
        for slave in manager.slaves:
            sanitizer.instrument(
                slave, ("applied_position", "start_position"),
                f"slave.{slave.name}")
