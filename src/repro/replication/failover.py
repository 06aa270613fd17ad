"""Master failover: the flip side of the application-managed approach.

The managed cloud offerings the paper contrasts against (§I) run "a
replication architecture ... behind-the-scenes to enable automatic
failover"; an application managing its own replicas must do this
itself.  This module implements the classic MySQL procedure:

1. the master fails (or is retired) — its dump threads die with it;
2. the application picks the **most up-to-date slave** (highest
   received binlog position), lets it drain its relay log, and
   promotes it to master;
3. every other slave is re-synchronized from the new master (snapshot
   + binlog tail) and re-attached;
4. the proxy is re-pointed.

Asynchronous replication makes the data-loss window explicit: binlog
events the failed master had committed but no slave had received are
gone — exactly the §II caveat ("once the updated replica goes offline
before duplicating data, data loss may occur").
"""

from __future__ import annotations

from typing import Optional

from ..db.errors import DatabaseError
from .manager import ReplicationManager, resync_slave_from
from .master import MasterServer
from .slave import SlaveServer

__all__ = ["fail_master", "promote", "best_candidate",
           "data_loss_window"]


def fail_master(manager: ReplicationManager) -> MasterServer:
    """Kill the master: it stops serving and stops streaming.

    Returns the dead master (tests inspect its binlog to measure the
    data-loss window).
    """
    master = manager.master
    if master is None:
        raise DatabaseError("cluster has no master to fail")
    master.online = False
    for slave in list(master.slaves):
        master.detach_slave(slave)
    return master


def data_loss_window(dead_master: MasterServer,
                     candidate: SlaveServer) -> int:
    """Committed binlog events the candidate never received.

    This is the §II asynchronous-replication caveat made measurable:
    the master acknowledged these commits to clients, but they die
    with it.  Zero is possible (an idle master, or a candidate that
    was fully caught up) — a fault drill reports the *measured* value
    rather than assuming it.
    """
    return max(0, dead_master.binlog.head_position
               - candidate.received_position)


def best_candidate(manager: ReplicationManager) -> SlaveServer:
    """The live slave holding the longest binlog prefix (received, not
    necessarily applied — the relay log is drained before promotion
    while the VM is up)."""
    live = [s for s in manager.slaves if s.online and s.instance.running]
    if not live:
        raise DatabaseError("no live slave available for promotion")
    return max(live, key=lambda s: (s.received_position, s.name))


def promote(manager: ReplicationManager,
            candidate: Optional[SlaveServer] = None,
            drain_poll: float = 0.05):
    """Process generator: fail over to ``candidate`` (default: best).

    Usage::

        new_master = yield from promote(manager)

    The old master must already be offline (see :func:`fail_master`).
    """
    old_master = manager.master
    if old_master is not None and old_master.online:
        raise DatabaseError("refusing to promote while the master is "
                            "online; call fail_master first")
    if candidate is None:
        candidate = best_candidate(manager)
    if candidate not in manager.slaves:
        raise DatabaseError(f"{candidate.name!r} is not in this cluster")

    # 1. Drain: apply everything already received into the relay log.
    # An empty relay log is not enough: the SQL thread pops an event
    # *before* it queues for a core, so with reads ahead of it the
    # last received commit can still be waiting to execute — stopping
    # replication then would drop it and report zero loss.  (Not
    # "applied < received": that would also wait out the CPU hold of
    # an apply whose job already ran, i.e. whose data is in place.)
    while candidate.relay_backlog > 0 or candidate.apply_pending:
        yield manager.sim.timeout(drain_poll)
        if not candidate.online or not candidate.instance.running:
            raise DatabaseError(
                f"candidate {candidate.name!r} failed while draining "
                f"its relay log; pick another candidate")

    # Every pass through the drain loop yielded, so everything
    # validated above is stale now (RACE001): re-read the cluster
    # state and re-validate before the irreversible rebrand.
    if candidate not in manager.slaves:
        raise DatabaseError(
            f"{candidate.name!r} left the cluster during the drain")
    if not candidate.online or not candidate.instance.running:
        raise DatabaseError(
            f"candidate {candidate.name!r} failed while draining "
            f"its relay log; pick another candidate")
    current = manager.master
    if current is not old_master and current is not None \
            and current.online:
        raise DatabaseError(
            "cluster was re-mastered during the drain; aborting this "
            "promotion")
    candidate.stop_replication()

    # 2. Rebrand the candidate's instance+data as the new master.
    new_master = MasterServer(
        manager.sim, candidate.instance, cost_model=manager.cost_model,
        default_database=manager.default_database,
        semi_sync=manager.semi_sync,
        binlog_format=manager.binlog_format)
    new_master.engine = candidate.engine
    new_master.engine.commit_listener = new_master._on_commit
    new_master.engine.binlog_format = manager.binlog_format
    candidate.online = False  # the old slave identity is retired

    # 3. Re-sync and re-attach the remaining slaves.
    survivors = [s for s in manager.slaves if s is not candidate]
    manager.master = new_master
    manager.slaves = []
    for slave in survivors:
        # Fresh snapshot + relay log: discards both the dead master's
        # undelivered events and the interrupted SQL thread's stale
        # getter.
        resync_slave_from(manager.sim, new_master, slave,
                          manager.cloud.network)
        manager.slaves.append(slave)
    return new_master
