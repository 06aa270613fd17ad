"""The master's statement-based binary log.

Each committed write appends one :class:`BinlogEvent` carrying the SQL
text (parameters inlined, non-deterministic functions left symbolic), a
monotonically increasing position, the id of the originating server and
the master's local commit timestamp.  Binlog-dump threads read from a
position cursor; :meth:`Binlog.wait_for` lets them park until new
events arrive.

Commits that land at one instant in one call (the dataset install's
whole load) go in as one *run* (:meth:`Binlog.append_run`): it takes
its positions at once, and its events are built only when a reader
asks for a position inside it.  Slaves that sync by snapshot at the
head never do, so the install's thousands of events are never made.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..sim import Event, Simulator

__all__ = ["BinlogEvent", "Binlog", "event_fields"]


class BinlogEvent(NamedTuple):
    """One replicated statement (or row-image batch); immutable."""

    position: int          # 1-based, dense
    statement: str         # SQL text to re-execute on the replica
    database: str          # default database in effect
    server_id: int         # originating server
    commit_wallclock: float  # master's local clock at commit
    commit_simtime: float    # true simulated time at commit (metrics only)
    #: Row-based replication payload; when set, ``statement`` is only
    #: a human-readable description and the slave applies the images.
    row_ops: Optional[tuple] = None

    @property
    def size_bytes(self) -> int:
        """Approximate wire size of the event."""
        if self.row_ops is not None:
            from .rowevents import row_ops_size_bytes
            return 60 + row_ops_size_bytes(self.row_ops)
        return 60 + len(self.statement)


def event_fields(payload) -> tuple[str, Optional[tuple]]:
    """``(statement, row_ops)`` of the event a committed ``payload``
    makes: its SQL text, or a row-image batch and a description."""
    if isinstance(payload, str):
        return payload, None
    return f"/* row-based event: {len(payload)} row(s) */", payload


#: ``tuple.__new__`` skips the NamedTuple constructor's argument
#: handling, on the path of every commit.
_new_event = tuple.__new__


class Binlog:
    """Append-only event log with change notification."""

    def __init__(self, sim: Simulator, server_id: int):
        self.sim = sim
        self.server_id = server_id
        #: One slot per position; ``None`` inside a run not built yet.
        self._events: list[Optional[BinlogEvent]] = []
        #: Runs not built yet, oldest first:
        #: ``(first index, commits, commit wallclock, commit simtime)``.
        self._runs: list[tuple] = []
        self._waiters: list[Event] = []

    @property
    def head_position(self) -> int:
        """Position of the newest event (0 when empty)."""
        return len(self._events)

    @property
    def events(self) -> list[BinlogEvent]:
        """Every event, oldest first (builds every run)."""
        self._build(0)
        return self._events

    def append(self, statement: str, database: str,
               commit_wallclock: float,
               row_ops: Optional[tuple] = None) -> BinlogEvent:
        events = self._events
        event = _new_event(BinlogEvent, (
            len(events) + 1, statement, database, self.server_id,
            commit_wallclock, self.sim.now, row_ops))
        events.append(event)
        self._wake()
        return event

    def append_run(self, commits: list, commit_wallclock: float) -> None:
        """Log ``commits``, ``(payload, database)`` pairs committed at
        this sim instant, as the next ``len(commits)`` positions; each
        event is what ``append`` of its :func:`event_fields` would
        make, built when a reader first asks for the run."""
        events = self._events
        self._runs.append((len(events), commits, commit_wallclock,
                           self.sim.now))
        events.extend([None] * len(commits))
        self._wake()

    def read_from(self, position: int,
                  max_events: Optional[int] = None) -> list[BinlogEvent]:
        """Events strictly after ``position`` (a 0-based cursor)."""
        self._build(position)
        chunk = self._events[position:]
        if max_events is not None:
            chunk = chunk[:max_events]
        return chunk

    def wait_for(self, position: int) -> Event:
        """Event firing once the log extends past ``position``."""
        ev = Event(self.sim)
        if self.head_position > position:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    # -- internals ---------------------------------------------------------
    def _wake(self) -> None:
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                waiter.succeed()

    def _build(self, position: int) -> None:
        """Build every run that holds an event after ``position``."""
        runs, server_id = self._runs, self.server_id
        while runs and runs[-1][0] + len(runs[-1][1]) > position:
            start, commits, wallclock, simtime = runs.pop()
            built = []
            for index, (payload, database) in enumerate(commits, start + 1):
                statement, row_ops = event_fields(payload)
                built.append(_new_event(BinlogEvent, (
                    index, statement, database, server_id, wallclock,
                    simtime, row_ops)))
            self._events[start:start + len(commits)] = built
