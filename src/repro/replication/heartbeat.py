"""Heartbeat-based replication-delay measurement.

Implements the paper's methodology (§III-A) verbatim:

* a dedicated ``heartbeats`` database with a ``heartbeat`` table
  holding ``(id, ts)`` rows, replicated in SQL-statement format;
* a plug-in that periodically inserts a new row with a **global id**
  and the master's **local microsecond timestamp** (``USEC_NOW()``,
  the bug-#8523 workaround UDF);
* each slave re-executes the insert statement, committing the same
  global id with **its own local timestamp**;
* the replication delay for a heartbeat is the difference of the two
  timestamps — contaminated by clock skew, which the *relative* delay
  estimator cancels by subtracting an idle-baseline average, both
  averages trimmed by 5 % at each end (§IV-B.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..db.errors import DatabaseError
from ..metrics import trimmed_mean
from ..sim import Actor, Simulator
from .master import MasterServer
from .slave import SlaveServer

__all__ = ["HEARTBEAT_DATABASE", "HEARTBEAT_TABLE", "HeartbeatPlugin",
           "HeartbeatSample", "collect_delays", "average_relative_delay_ms"]

HEARTBEAT_DATABASE = "heartbeats"
HEARTBEAT_TABLE = "heartbeats.heartbeat"
_INSERT_HEARTBEAT = ("INSERT INTO " + HEARTBEAT_TABLE +
                     " (id, ts) VALUES (?, USEC_NOW())")
_SELECT_HEARTBEATS = "SELECT id, ts FROM " + HEARTBEAT_TABLE


@dataclass(frozen=True)
class HeartbeatSample:
    """One heartbeat observed on both master and a slave."""

    heartbeat_id: int
    master_ts: float     # master's local clock at insert
    slave_ts: float      # slave's local clock at apply
    inserted_simtime: float  # true time of insert (windowing only)

    @property
    def delay_ms(self) -> float:
        """Raw delay, clock skew included — what the paper measures."""
        return (self.slave_ts - self.master_ts) * 1000.0


class HeartbeatPlugin:
    """Inserts one heartbeat row per ``interval`` on the master."""

    def __init__(self, sim: Simulator, master: MasterServer,
                 interval: float = 1.0):
        self.sim = sim
        self.master = master
        self.next_id = 1
        #: heartbeat id -> simulated insert time, for window filtering.
        self.inserted_at: dict[int, float] = {}
        #: heartbeat id -> binlog position of its INSERT, so trace
        #: analysis can pick the heartbeat population out of the
        #: replication-stage spans (binlog events carry only the
        #: *session* database, which is not ``heartbeats``).
        self.positions: dict[int, int] = {}
        self._actor = Actor("heartbeat", self._beat, interval)

    def install(self) -> None:
        """Create the heartbeats schema on the master (replicates as
        DDL, and is included in snapshots taken afterwards)."""
        self.master.admin(f"CREATE DATABASE IF NOT EXISTS "
                          f"{HEARTBEAT_DATABASE}")
        self.master.admin(
            f"CREATE TABLE IF NOT EXISTS {HEARTBEAT_TABLE} "
            f"(id INTEGER PRIMARY KEY, ts DOUBLE)")

    def start(self) -> None:
        self._actor.start(self.sim)

    def stop(self) -> None:
        self._actor.stop()

    def _beat(self):
        """One heartbeat: INSERT a row with a fresh global id."""
        heartbeat_id = self.next_id
        self.next_id += 1
        inserted = self.sim.now
        self.inserted_at[heartbeat_id] = inserted
        mark = len(self.master.binlog.events)
        try:
            yield from self.master.perform(_INSERT_HEARTBEAT,
                                           (heartbeat_id,))
        except DatabaseError:
            # The master died under us (an injected crash): the plug-in
            # dies with it, like a real master-side UDF job.
            # Post-failover staleness is measured by the cluster
            # monitor's oracle instead.
            del self.inserted_at[heartbeat_id]
            return Actor.STOP
        live = self.sim.live
        if live.enabled:
            # The SLO plane's dead-man switch: the absence of these
            # beats is what a master crash looks like.
            live.publish("heartbeat.beat", float(heartbeat_id))
        self._note_position(heartbeat_id, mark, inserted)

    def _note_position(self, heartbeat_id: int, mark: int,
                       inserted: float) -> None:
        """Find the binlog event our INSERT produced.

        Other transactions may commit between our append and
        ``perform`` returning, so we scan forward from the pre-insert
        head for our own statement text — the id is globally unique,
        so the match is exact, not a heuristic.
        """
        needle = f"VALUES ({heartbeat_id}, "
        for event in self.master.binlog.events[mark:]:
            if isinstance(event.statement, str) and \
                    needle in event.statement:
                self.positions[heartbeat_id] = event.position
                tracer = self.sim.tracer
                if tracer.enabled:
                    tracer.instant(
                        "repl.heartbeat", category="replication",
                        track=f"repl:{self.master.name}",
                        hb_id=heartbeat_id, position=event.position,
                        inserted=inserted)
                return


def collect_delays(plugin: HeartbeatPlugin, slave: SlaveServer,
                   window_start: Optional[float] = None,
                   window_end: Optional[float] = None
                   ) -> list[HeartbeatSample]:
    """Join master and slave heartbeat tables on the global id.

    Heartbeats the slave has not applied yet are absent from its table
    and therefore excluded — the same censoring the paper's
    table-driven measurement has.  ``window_*`` filter on the *insert*
    time (simulated), selecting e.g. the steady-state phase.
    """
    master_rows = {row[0]: row[1] for row in plugin.master.admin(
        _SELECT_HEARTBEATS, ()).result.rows}
    slave_rows = {row[0]: row[1] for row in slave.admin(
        _SELECT_HEARTBEATS, ()).result.rows}
    samples = []
    for heartbeat_id, master_ts in sorted(master_rows.items()):
        inserted = plugin.inserted_at.get(heartbeat_id)
        if inserted is None:
            continue
        if window_start is not None and inserted < window_start:
            continue
        if window_end is not None and inserted >= window_end:
            continue
        slave_ts = slave_rows.get(heartbeat_id)
        if slave_ts is None:
            continue
        samples.append(HeartbeatSample(heartbeat_id, master_ts, slave_ts,
                                       inserted))
    return samples


def average_relative_delay_ms(loaded: list[HeartbeatSample],
                              baseline: list[HeartbeatSample],
                              trim: float = 0.05) -> float:
    """The paper's estimator: trimmed-mean delay under load minus
    trimmed-mean delay with no workload running.

    Both averages carry the same (NTP-stabilized) clock skew, so the
    subtraction cancels it, leaving the workload-induced delay change.
    """
    loaded_ms = [s.delay_ms for s in loaded]
    baseline_ms = [s.delay_ms for s in baseline]
    return trimmed_mean(loaded_ms, trim) - trimmed_mean(baseline_ms, trim)
