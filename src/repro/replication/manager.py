"""The application-managed replication controller.

This is the "application-managed approach" of the paper's title: the
application itself provisions database VMs, wires up the master-slave
topology, and can grow or shrink the slave pool at runtime.  The
manager owns the full lifecycle:

* launch a master on a small instance (saturation observed early, as
  in the paper's setup) and start aggressive NTP on it;
* add a slave: launch the VM, then ``_sync_and_attach`` it — clone the
  master's tables at the current binlog position (the paper's
  "pre-loaded, fully-synchronized database") and attach the slave to
  the master's dump thread; crash recovery and failover re-sync
  through the same helper;
* remove a slave, detach and terminate;
* verify convergence: wait until every slave applied the binlog head,
  then compare table checksums (the heartbeat table is excluded — its
  timestamp column diverges *by design*, since every replica commits
  its own local clock reading).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cloud.instance import InstanceType, SMALL
from ..cloud.provisioner import Cloud
from ..cloud.regions import Placement
from ..db.errors import DatabaseError
from ..sim import Simulator
from ..sql.plancache import PlanCache
from .cost import CostModel, DEFAULT_COST_MODEL
from .heartbeat import HEARTBEAT_DATABASE
from .master import MasterServer
from .proxy import ReadWriteSplitProxy
from .slave import SlaveServer

__all__ = ["ReplicationManager", "resync_slave_from"]


def _sync_and_attach(master: MasterServer, slave: SlaveServer,
                     network) -> None:
    """Give ``slave`` the master's data as of the binlog head and
    stream from there.  All three positions start at the head: failover
    ranks candidates and measures lost commits by ``received_position``,
    and a freshly synced slave *has* received everything up to it."""
    slave.engine.restore(master.engine.snapshot())
    position = master.binlog.head_position
    slave.start_position = position
    slave.applied_position = position
    slave.received_position = position
    master.attach_slave(slave, network)


def resync_slave_from(sim: Simulator, master: MasterServer,
                      slave: SlaveServer, network) -> None:
    """Snapshot-resync ``slave`` from ``master`` and re-attach it.

    The slave's replication threads stop, its relay log is discarded
    (with any undelivered or half-applied tail), its data is replaced
    by a fresh master snapshot taken at the current binlog head, and a
    new dump thread starts from that position — the same procedure
    ``add_slave`` uses for a brand-new replica.  Shared between crash
    recovery (ReplicationManager.recover_slave) and failover
    (promote re-syncs every survivor from the new master).
    """
    slave.discard_relay_log()
    _sync_and_attach(master, slave, network)


class ReplicationManager:
    """Builds and operates one master-slave cluster on the cloud."""

    def __init__(self, sim: Simulator, cloud: Cloud,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 default_database: str = "cloudstone",
                 ntp_period: Optional[float] = 1.0,
                 semi_sync: bool = False,
                 binlog_format: str = "statement",
                 plan_cache: Optional[PlanCache] = None):
        self.sim = sim
        self.cloud = cloud
        self.cost_model = cost_model
        self.default_database = default_database
        self.ntp_period = ntp_period
        self.semi_sync = semi_sync
        self.binlog_format = binlog_format
        #: One prepared-plan cache for the whole cluster: the ASTs it
        #: holds are frozen, so master, slave apply threads and the
        #: proxy can all share the same entries.
        self.plan_cache = plan_cache if plan_cache is not None \
            else PlanCache()
        if sim.metrics.enabled:
            self.plan_cache.attach_metrics(sim.metrics)
        self.master: Optional[MasterServer] = None
        self.slaves: list[SlaveServer] = []

    # -- provisioning ----------------------------------------------------------
    def create_master(self, placement: Placement,
                      itype: InstanceType = SMALL,
                      name: str = "master") -> MasterServer:
        if self.master is not None:
            raise RuntimeError("cluster already has a master")
        instance = self.cloud.launch(itype, placement, name=name)
        if self.ntp_period is not None:
            self.cloud.start_ntp(instance, period=self.ntp_period)
        self.master = MasterServer(
            self.sim, instance, cost_model=self.cost_model,
            default_database=self.default_database,
            semi_sync=self.semi_sync,
            binlog_format=self.binlog_format,
            plan_cache=self.plan_cache)
        self.master.admin(f"CREATE DATABASE IF NOT EXISTS "
                          f"{self.default_database}")
        return self.master

    def add_slave(self, placement: Placement,
                  itype: InstanceType = SMALL,
                  name: Optional[str] = None) -> SlaveServer:
        """Provision a slave, sync it from the master, start replicating.

        Safe to call at runtime (the elasticity feature of the
        application-managed approach): the snapshot and the binlog
        position are taken at the same instant, so no event is lost or
        applied twice.
        """
        if self.master is None:
            raise RuntimeError("create the master before adding slaves")
        if name is None:
            name = f"slave-{len(self.slaves) + 1}"
        instance = self.cloud.launch(itype, placement, name=name)
        if self.ntp_period is not None:
            self.cloud.start_ntp(instance, period=self.ntp_period)
        slave = SlaveServer(self.sim, instance, cost_model=self.cost_model,
                            default_database=self.default_database,
                            plan_cache=self.plan_cache)
        _sync_and_attach(self.master, slave, self.cloud.network)
        self.slaves.append(slave)
        return slave

    def remove_slave(self, slave: SlaveServer) -> None:
        if slave not in self.slaves:
            raise ValueError(f"{slave.name!r} is not part of this cluster")
        self.master.detach_slave(slave)
        self.slaves.remove(slave)
        self.cloud.terminate(slave.instance)

    # -- fault handling ---------------------------------------------------------
    def stall_replication(self, slave: SlaveServer) -> None:
        """Freeze the replication channel feeding ``slave``."""
        if self.master is None:
            raise DatabaseError("cluster has no master")
        self.master.channel_to(slave).stall()

    def resume_replication(self, slave: SlaveServer) -> None:
        """Unfreeze ``slave``'s channel; held events flush in order."""
        if self.master is None:
            raise DatabaseError("cluster has no master")
        self.master.channel_to(slave).resume()

    def recover_slave(self, slave: SlaveServer) -> bool:
        """Bring a restarted slave back; True when it was re-synced.

        A crashed slave loses its replication position (its relay log
        and any half-applied transaction are gone with the VM), so the
        recovery path mirrors ``add_slave``: fresh snapshot at the
        current binlog head, then stream from there.  With no online
        master to copy it comes back stale but promotable, having
        received what it applied: failover counts the rest as lost.
        """
        if slave not in self.slaves:
            raise ValueError(f"{slave.name!r} is not part of this cluster")
        if not slave.instance.running:
            raise DatabaseError(f"instance of {slave.name!r} is down; "
                                f"restart it before recovering it")
        slave.online = True
        if self.master is None or not self.master.online:
            slave.discard_relay_log()
            slave.received_position = slave.applied_position
            return False
        if any(attached is slave for attached in self.master.slaves):
            self.master.detach_slave(slave)
        resync_slave_from(self.sim, self.master, slave,
                          self.cloud.network)
        return True

    def build_proxy(self, client_placement: Placement,
                    policy: str = "round_robin",
                    rng: Optional[np.random.Generator] = None
                    ) -> ReadWriteSplitProxy:
        """The client-side read/write-splitting proxy for this cluster."""
        if self.master is None:
            raise RuntimeError("cluster has no master")
        return ReadWriteSplitProxy(self.cloud.network, self.master,
                                   self.slaves, client_placement,
                                   policy=policy, rng=rng,
                                   plan_cache=self.plan_cache)

    # -- convergence -------------------------------------------------------------
    def all_caught_up(self) -> bool:
        head = self.master.binlog.head_position
        return all(s.applied_position >= head for s in self.slaves)

    def wait_until_caught_up(self, poll: float = 0.05,
                             timeout: Optional[float] = None):
        """Process generator: block until every slave applied the head.

        Returns True, or False if ``timeout`` simulated seconds elapse
        first.  Only meaningful while no new writes are arriving.
        """
        deadline = None if timeout is None else self.sim.now + timeout
        while not self.all_caught_up():
            if deadline is not None and self.sim.now >= deadline:
                return False
            yield self.sim.timeout(poll)
        return True

    def data_checksum(self, server,
                      exclude_databases: tuple = (HEARTBEAT_DATABASE,)
                      ) -> tuple:
        """Checksum of a server's tables, excluding diverging-by-design
        databases (the heartbeat timestamps differ per replica)."""
        names = sorted(
            name for name in server.engine.tables
            if name.split(".", 1)[0] not in exclude_databases)
        return tuple((name, server.engine.tables[name].checksum_state())
                     for name in names)

    def verify_consistency(self) -> bool:
        """True when every slave's data equals the master's.

        Call after :meth:`wait_until_caught_up`; under active load the
        replicas are *eventually* consistent only.
        """
        reference = self.data_checksum(self.master)
        return all(self.data_checksum(slave) == reference
                   for slave in self.slaves)
