"""Executes a :class:`FaultSchedule` against a live cluster.

One injector process walks the schedule in sim time and applies each
fault through the public substrate hooks (``Instance.crash``,
``Network.partition``/``add_latency``, ``OrderedChannel.stall`` via
the manager, ...).  Every begin/end is logged, traced (a ``chaos.fault``
span covering the fault's active window, or an instant for one-shot
faults) and counted, so ``repro analyze`` can line the degraded cells
up with their injected causes.

The injector is deliberately *not* the recovery path: it breaks
things; the drill's failover controller and replica health policy
(:mod:`repro.chaos.drill`) fix them — except a crashed slave's
restart+resync, which models the cloud provider rebooting the VM.
"""

from __future__ import annotations

from typing import Optional

from ..cloud.network import Network
from ..db.errors import DatabaseError
from ..replication.failover import fail_master
from ..replication.manager import ReplicationManager
from ..replication.proxy import ReadWriteSplitProxy
from ..replication.slave import SlaveServer
from ..sim import Actor, Simulator
from .faults import Fault, FaultSchedule

__all__ = ["ChaosInjector"]


class ChaosInjector:
    """Applies a fault schedule to a running cluster."""

    def __init__(self, sim: Simulator, manager: ReplicationManager,
                 network: Network, schedule: FaultSchedule,
                 proxy: Optional[ReadWriteSplitProxy] = None,
                 offset: float = 0.0):
        self.sim = sim
        self.manager = manager
        self.network = network
        self.schedule = schedule
        self.proxy = proxy
        self.offset = offset
        #: Chronological action log: ``(sim time, fault, action, note)``
        #: where action is ``begin`` / ``end`` / ``skip``.
        self.log: list[tuple[float, Fault, str, str]] = []
        self._actor = Actor("chaos-injector", self._walk)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        self._actor.start(self.sim)

    def stop(self) -> None:
        self._actor.stop()

    def _walk(self):
        """Begin each fault at its due time, in schedule order."""
        for fault in self.schedule:
            due = self.offset + fault.at
            if due > self.sim.now:
                yield self.sim.timeout(due - self.sim.now)
            self._begin(fault)

    # -- bookkeeping ---------------------------------------------------------
    def _note(self, fault: Fault, action: str, note: str = "") -> None:
        self.log.append((self.sim.now, fault, action, note))

    def _emit_begin(self, fault: Fault):
        metrics = self.sim.metrics
        if metrics.enabled:
            metrics.counter("chaos.faults").inc()
            metrics.counter(f"chaos.fault.{fault.kind}").inc()
        tracer = self.sim.tracer
        if not tracer.enabled:
            return None
        if fault.duration <= 0:
            tracer.instant("chaos.fault", category="chaos",
                           track="chaos", kind=fault.kind,
                           target=fault.target or "-")
            return None
        # The span covers the fault's active window; ownership passes
        # to the end-timer process, which closes it.
        return tracer.open_span("chaos.fault", category="chaos",
                                track="chaos", kind=fault.kind,
                                target=fault.target or "-",
                                severity=fault.severity)

    def _slave(self, name: str) -> Optional[SlaveServer]:
        for slave in self.manager.slaves:
            if slave.name == name:
                return slave
        return None

    # -- fault application ---------------------------------------------------
    def _begin(self, fault: Fault) -> None:
        handler = getattr(self, "_begin_" + fault.kind.replace("-", "_"))
        span = self._emit_begin(fault)
        ended_early = handler(fault)
        if ended_early:
            if span is not None:
                span.end()
            return
        self.sim.process(self._end_later(fault, span),
                         name=f"chaos-end:{fault.kind}")

    def _end_later(self, fault: Fault, span):
        yield self.sim.timeout(fault.duration)
        handler = getattr(self, "_end_" + fault.kind.replace("-", "_"))
        handler(fault)
        if span is not None:
            span.end()

    # master-crash: one-shot; the drill's failover controller recovers.
    def _begin_master_crash(self, fault: Fault) -> bool:
        master = self.manager.master
        if master is None or not master.online:
            self._note(fault, "skip", "no online master")
            return True
        head = master.binlog.head_position
        fail_master(self.manager)
        master.instance.crash()
        self._note(fault, "begin",
                   f"master={master.name} binlog_head={head}")
        return True

    # slave-crash: down for ``duration``, then restart + resync.
    def _begin_slave_crash(self, fault: Fault) -> bool:
        slave = self._slave(fault.target)
        if slave is None:
            self._note(fault, "skip", "slave not in cluster")
            return True
        if self.proxy is not None:
            self.proxy.evict(slave, reason="crash")
        master = self.manager.master
        if master is not None \
                and any(s is slave for s in master.slaves):
            master.detach_slave(slave)
        slave.stop_replication()
        slave.online = False
        slave.instance.crash()
        self._note(fault, "begin", f"slave={slave.name}")
        return fault.duration <= 0

    def _end_slave_crash(self, fault: Fault) -> None:
        slave = self._slave(fault.target)
        if slave is None:
            self._note(fault, "skip", "slave left cluster while down")
            return
        slave.instance.restart()
        if not self.manager.recover_slave(slave):
            # The drill's health policy readmits it for reads.
            self._note(fault, "end", f"slave={slave.name} restarted stale "
                       f"at position {slave.received_position}: no "
                       f"online master to re-sync from")
            return
        if self.proxy is not None:
            self.proxy.readmit(slave)
        self._note(fault, "end", f"slave={slave.name} resynced at "
                                 f"position {slave.start_position}")

    # partition: cut a region pair, heal after ``duration``.
    def _begin_partition(self, fault: Fault) -> bool:
        region_a, region_b = fault.regions
        self.network.partition(region_a, region_b)
        self._note(fault, "begin", fault.target)
        return fault.duration <= 0

    def _end_partition(self, fault: Fault) -> None:
        region_a, region_b = fault.regions
        self.network.heal(region_a, region_b)
        self._note(fault, "end", f"{fault.target} healed")

    # latency: surge one pair (or everywhere with target "*").
    def _begin_latency(self, fault: Fault) -> bool:
        if fault.target == "*":
            self.network.add_latency(fault.severity)
        else:
            region_a, region_b = fault.regions
            self.network.add_latency(fault.severity, region_a, region_b)
        self._note(fault, "begin",
                   f"{fault.target} +{fault.severity:g}ms")
        return fault.duration <= 0

    def _end_latency(self, fault: Fault) -> None:
        if fault.target == "*":
            self.network.clear_latency()
        else:
            region_a, region_b = fault.regions
            self.network.clear_latency(region_a, region_b)
        self._note(fault, "end", f"{fault.target} restored")

    # slave-slow: degrade the instance CPU by ``severity``.
    def _begin_slave_slow(self, fault: Fault) -> bool:
        slave = self._slave(fault.target)
        if slave is None:
            self._note(fault, "skip", "slave not in cluster")
            return True
        slave.instance.slow_down(fault.severity)
        self._note(fault, "begin",
                   f"slave={slave.name} factor={fault.severity:g}")
        return fault.duration <= 0

    def _end_slave_slow(self, fault: Fault) -> None:
        slave = self._slave(fault.target)
        if slave is None:
            self._note(fault, "skip", "slave left cluster while slow")
            return
        slave.instance.restore_speed()
        self._note(fault, "end", f"slave={slave.name} restored")

    # repl-stall: wedge the dump connection feeding one slave.
    def _begin_repl_stall(self, fault: Fault) -> bool:
        slave = self._slave(fault.target)
        if slave is None:
            self._note(fault, "skip", "slave not in cluster")
            return True
        try:
            self.manager.stall_replication(slave)
        except (DatabaseError, ValueError) as error:
            self._note(fault, "skip", str(error))
            return True
        self._note(fault, "begin", f"slave={slave.name}")
        return fault.duration <= 0

    def _end_repl_stall(self, fault: Fault) -> None:
        slave = self._slave(fault.target)
        if slave is None:
            self._note(fault, "skip", "slave left cluster while "
                                      "stalled")
            return
        try:
            self.manager.resume_replication(slave)
        except (DatabaseError, ValueError) as error:
            self._note(fault, "skip", str(error))
            return
        self._note(fault, "end", f"slave={slave.name} flushed")

    # -- reporting -----------------------------------------------------------
    def timeline(self) -> list[str]:
        """The applied timeline (absolute sim times), one line each."""
        return [f"t={when:10.3f}s  {action:<5s} {fault.kind:<12s} "
                f"{fault.target or '-':<24s} {note}".rstrip()
                for when, fault, action, note in self.log]
