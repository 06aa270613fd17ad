"""The replication slave.

A slave runs two replication threads, exactly like MySQL:

* the **IO thread** receives binlog events from the master's dump
  thread and appends them to the relay log (modelled as the ordered
  channel's delivery callback — its CPU cost is negligible next to
  statement execution);
* the **SQL thread** pops relay-log events one at a time, re-executes
  the statement text against the local engine (evaluating
  non-deterministic functions such as ``USEC_NOW()`` on the *local*
  clock — the paper's heartbeat measurement mechanism) and charges the
  apply cost to the local CPU.

The SQL thread is single-threaded and shares the instance CPU with
client read queries: under read pressure the relay log backs up and
replication delay grows — the central dynamic behind the paper's
Figs. 5 and 6.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..cloud.network import Network
from ..db.binlog import BinlogEvent
from ..sim import Interrupt, Store
from .server import DatabaseServer

if TYPE_CHECKING:  # pragma: no cover
    from .master import MasterServer

__all__ = ["SlaveServer"]


class SlaveServer(DatabaseServer):
    """A read-only replica applying the master's binlog."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, read_only=True, **kwargs)
        self.relay_log: Store = Store(self.sim)
        self.start_position = 0
        self.applied_position = 0
        self.received_position = 0
        #: Events received whose apply has not started: those queued on
        #: the relay log plus the one the SQL thread may be holding.
        self._unstarted = 0
        self.events_applied = 0
        self.events_dropped = 0
        self.bytes_received = 0
        self._master: Optional["MasterServer"] = None
        self._network: Optional[Network] = None
        self._sql_thread_process = None
        self._ship_spans: dict = {}
        self._relay_spans: dict = {}

    def connect_to_master(self, master: "MasterServer",
                          network: Network) -> None:
        """Called by MasterServer.attach_slave; starts the SQL thread."""
        self._master = master
        self._network = network
        if self._sql_thread_process is None:
            self._sql_thread_process = self.sim.process(
                self._sql_thread(), name=f"sql-thread:{self.name}")

    def stop_replication(self) -> None:
        """Kill the SQL thread (promotion or decommissioning)."""
        self._master = None
        if self._sql_thread_process is not None \
                and self._sql_thread_process.is_alive:
            self._sql_thread_process.interrupt("stopped")
        self._sql_thread_process = None
        # Whatever the thread held is gone with it; still counting it
        # would make a later promotion of this slave drain forever.
        self._unstarted = len(self.relay_log)

    def discard_relay_log(self) -> None:
        """Stop replicating and forget everything received but not
        applied (the relay log lives in the VM's memory)."""
        self.stop_replication()
        self.relay_log = Store(self.sim)
        self._unstarted = 0

    # -- observability ------------------------------------------------------
    def note_shipped(self, position: int, span) -> None:
        """Master's dump thread hands over the ``repl.ship`` span; the
        IO thread ends it when the event arrives."""
        self._ship_spans[position] = span

    # -- IO thread ----------------------------------------------------------
    def receive_event(self, event: BinlogEvent) -> None:
        """Delivery callback of the replication channel (IO thread).

        Events from a server that is no longer this slave's master
        (in-flight deliveries racing a failover) are dropped.
        """
        ship_span = self._ship_spans.pop(event.position, None)
        master = self._master
        if master is None or event.server_id != master.server_id:
            if ship_span is not None:
                ship_span.set_attribute("dropped", True)
                ship_span.end()
            self.events_dropped += 1
            return
        if ship_span is not None:
            ship_span.end()
        tracer = self.sim.tracer
        if tracer.enabled:
            self._relay_spans[event.position] = tracer.open_span(
                "repl.relay", category="replication",
                track=f"repl:{self.name}", position=event.position,
                backlog=len(self.relay_log))
        self.relay_log.put(event)
        self._unstarted += 1
        self.received_position = event.position
        self.bytes_received += event.size_bytes
        if master.semi_sync:
            self._network.send(
                self.placement, master.placement, event.position,
                on_delivery=master.acknowledge)

    # -- SQL thread -----------------------------------------------------------
    def _sql_thread(self):
        from ..db.rowevents import apply_row_ops
        try:
            while True:
                event: BinlogEvent = yield self.relay_log.get()

                def apply_job(event=event):
                    # Runs when the SQL thread reaches a core: read
                    # queries queued ahead of it still see the
                    # pre-apply state (replication staleness).
                    self._unstarted -= 1
                    if event.row_ops is not None:
                        affected = apply_row_ops(self.engine,
                                                 event.row_ops)
                        return None, self.cost_model.row_apply_work(
                            affected)
                    result = self.engine.execute(
                        event.statement, database=event.database)
                    return None, self.cost_model.apply_work_for(
                        result.profile)

                relay_span = self._relay_spans.pop(event.position, None)
                if relay_span is not None:
                    relay_span.end()
                tracer = self.sim.tracer
                if tracer.enabled:
                    with tracer.span("repl.apply", category="replication",
                                     track=f"repl:{self.name}",
                                     position=event.position):
                        yield from self.instance.run_on_cpu(apply_job)
                else:
                    yield from self.instance.run_on_cpu(apply_job)
                self.applied_position = event.position
                self.events_applied += 1
        except Interrupt:
            return

    # -- introspection ------------------------------------------------------------
    @property
    def relay_backlog(self) -> int:
        """Events received but not yet applied."""
        return len(self.relay_log)

    @property
    def apply_pending(self) -> bool:
        """True while the SQL thread holds an event off the relay log
        whose apply has not started (it queues for a core behind client
        reads): ``relay_backlog`` no longer counts it, yet stopping
        replication now would drop it — ``promote`` drains on both.
        Counted in the step the event arrives, not flagged when the
        thread resumes: ``Store.put`` hands straight to a parked one."""
        return self._unstarted > len(self.relay_log)

    def seconds_behind_master(self) -> float:
        """True replication lag in simulated seconds (oracle metric).

        The paper cannot observe this directly — it estimates delay via
        heartbeats and relative-delay subtraction; this oracle exists
        so tests can validate the estimator.
        """
        if self.relay_log.items:
            oldest: BinlogEvent = self.relay_log.items[0]
            return self.sim.now - oldest.commit_simtime
        return 0.0
