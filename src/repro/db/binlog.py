"""The master's statement-based binary log.

Each committed write appends one :class:`BinlogEvent` carrying the SQL
text (parameters inlined, non-deterministic functions left symbolic), a
monotonically increasing position, the id of the originating server and
the master's local commit timestamp.  Binlog-dump threads read from a
position cursor; :meth:`Binlog.wait_for` lets them park until new
events arrive.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..sim import Event, Simulator

__all__ = ["BinlogEvent", "Binlog"]


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


_new_event = tuple.__new__


class Binlog:
    """Append-only event log with change notification."""

    def __init__(self, sim: Simulator, server_id: int):
        self.sim = sim
        self.server_id = server_id
        self.events: list[BinlogEvent] = []
        self._waiters: list[Event] = []

    @property
    def head_position(self) -> int:
        """Position of the newest event (0 when empty)."""
        return len(self.events)

    def append(self, statement: str, database: str,
               commit_wallclock: float,
               row_ops: Optional[tuple] = None) -> BinlogEvent:
        events = self.events
        # ``tuple.__new__`` skips the NamedTuple constructor's argument
        # handling: the dataset install appends thousands at once.
        event = _new_event(BinlogEvent, (
            len(events) + 1, statement, database, self.server_id,
            commit_wallclock, self.sim.now, row_ops))
        events.append(event)
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                waiter.succeed()
        return event

    def read_from(self, position: int,
                  max_events: Optional[int] = None) -> list[BinlogEvent]:
        """Events strictly after ``position`` (a 0-based cursor)."""
        chunk = self.events[position:]
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
