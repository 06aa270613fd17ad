"""Read/write-splitting proxy (the MySQL Connector/J stand-in).

The paper's client stack sends **all write operations to the master**
and **distributes all read operations among the slaves**.  The proxy
implements that routing plus the client-side network round trip: a
statement executed through the proxy pays one-way latency from the
client to the chosen server, queues for the server's CPU, and pays the
return latency.

Balancing policies:

* ``round_robin`` — Connector/J's default for read replicas (used in
  the paper's experiments);
* ``random`` — uniform choice;
* ``least_outstanding`` — route to the slave with the fewest in-flight
  operations; an implementation of the "smart load balancer" the paper
  suggests in §IV-B.2.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

import numpy as np

from ..cloud.network import Network
from ..cloud.regions import Placement
from ..sql.ast import Statement
from ..sql.parser import parse
from ..sql.plancache import PlanCache
from .master import MasterServer
from .server import DatabaseServer, failed
from .slave import SlaveServer

__all__ = ["ReadWriteSplitProxy", "BALANCING_POLICIES"]

BALANCING_POLICIES = ("round_robin", "random", "least_outstanding")


class ReadWriteSplitProxy:
    """Routes writes to the master and balances reads over slaves."""

    def __init__(self, network: Network, master: MasterServer,
                 slaves: Sequence[SlaveServer],
                 client_placement: Placement,
                 policy: str = "round_robin",
                 rng: Optional[np.random.Generator] = None,
                 read_your_writes_window: float = 0.0,
                 plan_cache: Optional[PlanCache] = None):
        if policy not in BALANCING_POLICIES:
            raise ValueError(f"unknown balancing policy {policy!r}; "
                             f"choose from {BALANCING_POLICIES}")
        if policy == "random" and rng is None:
            raise ValueError("random policy requires an rng")
        if read_your_writes_window < 0:
            raise ValueError("read_your_writes_window must be >= 0")
        self.network = network
        self.master = master
        self.slaves = list(slaves)
        self.client_placement = client_placement
        self.policy = policy
        self.rng = rng
        #: Seconds after a session's write during which that session's
        #: reads stick to the master — a standard mitigation for the
        #: asynchronous-replication staleness the paper characterizes.
        #: 0.0 (the paper's configuration) disables it.
        self.read_your_writes_window = read_your_writes_window
        #: Shared prepared-plan cache; the proxy prepares client SQL
        #: once and hands the frozen AST (plus extracted parameters)
        #: down the whole server path.
        self.plan_cache = plan_cache
        self._last_write_at: dict = {}
        self._cursor = 0
        self._outstanding: dict[str, int] = {}
        #: Slaves temporarily pulled out of read balancing (offline or
        #: too stale); they stay cluster members and keep replicating.
        self._evicted: set[str] = set()
        self.reads_routed = 0
        self.writes_routed = 0
        self.sticky_reads = 0
        self.evictions = 0
        self.readmissions = 0

    # -- routing ------------------------------------------------------------
    def note_write(self, session) -> None:
        """Record that ``session`` just wrote (for read-your-writes)."""
        if session is not None and self.read_your_writes_window > 0:
            self._last_write_at[session] = self.network.sim.now

    def route(self, statement: Statement,
              session=None) -> DatabaseServer:
        """Pick the server a statement should run on."""
        if statement.is_write or statement.is_transaction_control:
            self.writes_routed += 1
            self.note_write(session)
            return self.master
        return self.pick_read_server(session=session)

    def _session_is_sticky(self, session) -> bool:
        # ``note_write`` records no write without a session or a
        # positive window, and ``now - last_write`` is never negative.
        last_write = self._last_write_at.get(session)
        return last_write is not None and \
            self.network.sim.now - last_write < self.read_your_writes_window

    # -- health-based eviction -----------------------------------------------
    def evict(self, slave: SlaveServer, reason: str = "") -> bool:
        """Pull ``slave`` out of read balancing (stale or offline).

        The slave remains attached to the master and keeps applying
        events; only client reads stop landing on it.  Returns True if
        the call changed anything.
        """
        if slave.name in self._evicted:
            return False
        self._evicted.add(slave.name)
        self.evictions += 1
        sim = self.network.sim
        if sim.tracer.enabled:
            sim.tracer.instant("proxy.evict", category="client",
                               slave=slave.name, reason=reason)
        if sim.metrics.enabled:
            sim.metrics.counter("proxy.evictions").inc()
        return True

    def readmit(self, slave: SlaveServer) -> bool:
        """Return a recovered slave to read balancing."""
        if slave.name not in self._evicted:
            return False
        self._evicted.discard(slave.name)
        self.readmissions += 1
        sim = self.network.sim
        if sim.tracer.enabled:
            sim.tracer.instant("proxy.readmit", category="client",
                               slave=slave.name)
        if sim.metrics.enabled:
            sim.metrics.counter("proxy.readmissions").inc()
        return True

    def is_evicted(self, slave: SlaveServer) -> bool:
        return slave.name in self._evicted

    @property
    def healthy_slaves(self) -> list[SlaveServer]:
        """Slaves currently eligible for reads."""
        return [s for s in self.slaves
                if s.online and s.name not in self._evicted]

    def pick_read_server(self, session=None) -> DatabaseServer:
        """Balance a read over the healthy slaves (master if none).

        Multi-statement read operations call this once and pin every
        statement to the chosen replica for session consistency.  A
        session inside its read-your-writes window reads the master.
        """
        if self._session_is_sticky(session):
            self.reads_routed += 1
            self.sticky_reads += 1
            return self.master
        candidates = self.healthy_slaves
        if not candidates:
            # Degenerate cluster (or every slave evicted): the master
            # serves reads too.
            self.reads_routed += 1
            return self.master
        self.reads_routed += 1
        if self.policy == "round_robin":
            slave = candidates[self._cursor % len(candidates)]
            self._cursor += 1
            return slave
        if self.policy == "random":
            return candidates[int(self.rng.integers(len(candidates)))]
        return min(candidates,
                   key=lambda s: (self._outstanding.get(s.name, 0),
                                  s.name))

    # -- execution ------------------------------------------------------------
    def execute(self, statement: Union[str, Statement],
                params: Optional[Sequence[Any]] = None,
                server: Optional[DatabaseServer] = None):
        """Process generator: run one statement through the proxy.

        Usage: ``result = yield from proxy.execute(sql)``.
        Pass ``server`` to pin the statement (used for multi-statement
        operations that must stay on one replica).

        The request crosses the network, the server serves it
        (:meth:`DatabaseServer.serve`), and the reply crosses back.
        """
        if isinstance(statement, str):
            cache = self.plan_cache
            if cache is None:
                statement = parse(statement)
            else:
                statement, params = cache.prepare(statement, params)
        target = server if server is not None else self.route(statement)
        name, network = target.name, self.network
        outstanding = self._outstanding
        outstanding[name] = outstanding.get(name, 0) + 1
        sim = network.sim
        span = sim.tracer.span(
            "proxy.execute", category="client", server=name,
            write=statement.is_write) if sim.tracer.enabled else None
        try:
            yield network.send(self.client_placement, target.placement)
            result = yield from target.serve(statement, params)
            yield network.send(target.placement, self.client_placement)
        except BaseException as exc:
            failed(span, exc)
            raise
        finally:
            outstanding[name] -= 1
            if span is not None:
                span.end()
        return result

    def set_master(self, master: MasterServer) -> None:
        """Re-point writes after a failover promotion."""
        self.master = master
        self.slaves = [s for s in self.slaves if s.online]

    def add_slave(self, slave: SlaveServer) -> None:
        self.slaves.append(slave)

    def remove_slave(self, slave: SlaveServer) -> None:
        self.slaves = [s for s in self.slaves if s is not slave]
