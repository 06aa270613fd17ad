"""The replication master.

All write transactions execute here.  Committed write statements are
appended to the binlog stamped with the master's local clock; one
binlog-dump thread per attached slave streams new events down an
ordered channel (asynchronous replication — the client's write returns
without waiting for any slave).

A semi-synchronous mode is provided as an extension (the paper's §II
discusses synchronous replication but evaluates only the asynchronous
mode): when enabled, a committing write blocks until at least one slave
acknowledges *receipt* (not application) of the event.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..cloud.network import Network
from ..db.binlog import Binlog, event_fields
from ..db.engine import ExecutionResult
from ..sim import Event, Interrupt
from ..sql.ast import Statement
from .messages import OrderedChannel
from .server import DatabaseServer

if TYPE_CHECKING:  # pragma: no cover
    from .slave import SlaveServer

__all__ = ["MasterServer"]


class MasterServer(DatabaseServer):
    """The single writable replica."""

    def __init__(self, *args, semi_sync: bool = False,
                 binlog_format: str = "statement", **kwargs):
        super().__init__(*args, read_only=False, **kwargs)
        if binlog_format not in ("statement", "row"):
            raise ValueError(f"binlog_format must be 'statement' or "
                             f"'row', got {binlog_format!r}")
        self.binlog = Binlog(self.sim, self.server_id)
        self.engine.binlog_format = binlog_format
        self.engine.commit_listener = self._on_commit
        self.semi_sync = semi_sync
        self.slaves: list["SlaveServer"] = []
        self._dump_processes = []
        self._channels: list[OrderedChannel] = []
        self._ack_position = 0
        self._ack_waiters: list[tuple[int, Event]] = []

    # -- binlog production ------------------------------------------------------
    def _on_commit(self, statements: list) -> None:
        """Binlog ``statements``, all committed at this sim instant (one
        transaction, or the dataset image's whole load), so they share
        one clock reading.  A single commit is appended; more go in as
        one run, built only if a slave reads them."""
        binlog, wallclock = self.binlog, self.clock.now()
        if len(statements) == 1:
            (payload, database), = statements
            statement, row_ops = event_fields(payload)
            binlog.append(statement, database, wallclock, row_ops)
        else:
            binlog.append_run(statements, wallclock)
        tracer = self.sim.tracer
        if tracer.enabled:
            head = binlog.head_position
            for position in range(head - len(statements) + 1, head + 1):
                tracer.instant("repl.binlog", category="replication",
                               track=f"repl:{self.name}",
                               position=position)

    # -- slave attachment ---------------------------------------------------------
    def attach_slave(self, slave: "SlaveServer", network: Network) -> None:
        """Register ``slave`` and start streaming binlog events to it.

        The slave must already hold a snapshot consistent with its
        ``start_position`` (see ReplicationManager.add_slave).
        """
        if any(existing is slave for existing in self.slaves):
            raise ValueError(f"slave {slave.name!r} already attached")
        channel = OrderedChannel(network, self.placement, slave.placement,
                                 on_delivery=slave.receive_event)
        slave.connect_to_master(self, network)
        self.slaves.append(slave)
        self._channels.append(channel)
        process = self.sim.process(
            self._dump_thread(slave, channel),
            name=f"binlog-dump:{self.name}->{slave.name}")
        self._dump_processes.append(process)

    def detach_slave(self, slave: "SlaveServer") -> None:
        """Stop replicating to ``slave``."""
        for position, process in enumerate(self._dump_processes):
            if self.slaves[position] is slave:
                if process.is_alive:
                    process.interrupt("detached")
                del self.slaves[position]
                del self._dump_processes[position]
                del self._channels[position]
                return
        raise ValueError(f"slave {slave.name!r} is not attached")

    def channel_to(self, slave: "SlaveServer") -> OrderedChannel:
        """The replication channel feeding ``slave`` (fault injection
        stalls it; see ReplicationManager.stall_replication)."""
        for position, attached in enumerate(self.slaves):
            if attached is slave:
                return self._channels[position]
        raise ValueError(f"slave {slave.name!r} is not attached")

    def _dump_thread(self, slave: "SlaveServer", channel: OrderedChannel):
        cursor = slave.start_position
        tracer = self.sim.tracer
        try:
            while True:
                yield self.binlog.wait_for(cursor)
                events = self.binlog.read_from(cursor)
                for event in events:
                    if tracer.enabled:
                        # Ownership transfers to the slave, which ends
                        # the span when the event is delivered.
                        span = tracer.open_span(
                            "repl.ship", category="replication",
                            track=f"repl:{slave.name}",
                            position=event.position,
                            size_bytes=event.size_bytes)
                        slave.note_shipped(event.position, span)
                    channel.send(event, size_bytes=event.size_bytes)
                cursor += len(events)
        except Interrupt:
            return  # detached

    # -- semi-sync plumbing ---------------------------------------------------------
    def acknowledge(self, position: int) -> None:
        """Called (over the network) when a slave received up to
        ``position``."""
        if position <= self._ack_position:
            return
        self._ack_position = position
        ready = [ev for pos, ev in self._ack_waiters if pos <= position]
        self._ack_waiters = [(pos, ev) for pos, ev in self._ack_waiters
                             if pos > position]
        for event in ready:
            event.succeed()

    def _wait_for_ack(self, position: int) -> Event:
        event = Event(self.sim)
        if position <= self._ack_position or not self.slaves:
            event.succeed()
        else:
            self._ack_waiters.append((position, event))
        return event

    def served(self, statement: Statement,
               result: ExecutionResult) -> Optional[Event]:
        """Semi-sync: a commit is answered once a slave received it."""
        super().served(statement, result)
        if self.semi_sync and result.commits:
            return self._wait_for_ack(self.binlog.head_position)
        return None

    # -- introspection ----------------------------------------------------------------
    def slave_lag_positions(self) -> dict[str, int]:
        """Binlog events each slave has yet to apply."""
        head = self.binlog.head_position
        return {slave.name: head - slave.applied_position
                for slave in self.slaves}
