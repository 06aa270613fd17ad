"""Cluster telemetry: what an application managing its own replicas
has to watch.

The paper's conclusion is a list of operational hazards — master write
saturation, slave CPU contention starving the apply thread, delay
blowing up with workload, instance performance variation.  A real
application-managed deployment needs continuous visibility into all of
them; :class:`ClusterMonitor` samples the cluster on a fixed period
and keeps bounded history, and :func:`detect_pressure` turns a sample
into the signals an autoscaler (see ``examples/elastic_scaling.py``)
acts on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from sys import intern
from typing import Optional

from ..sim import Actor, Simulator
from .manager import ReplicationManager

__all__ = ["SlaveSample", "ClusterSample", "PressureSignals",
           "ClusterMonitor", "detect_pressure"]


@dataclass(frozen=True)
class SlaveSample:
    """One slave's state at a sampling instant."""

    name: str
    relay_backlog: int
    cpu_queue: int
    cpu_utilization: float
    applied_position: int
    seconds_behind: float


@dataclass(frozen=True)
class ClusterSample:
    """The whole tier at a sampling instant."""

    time: float
    master_cpu_utilization: float
    master_cpu_queue: int
    binlog_head: int
    slaves: tuple[SlaveSample, ...]

    @property
    def worst_backlog(self) -> int:
        return max((s.relay_backlog for s in self.slaves), default=0)

    @property
    def worst_seconds_behind(self) -> float:
        return max((s.seconds_behind for s in self.slaves), default=0.0)

    @property
    def max_slave_utilization(self) -> float:
        return max((s.cpu_utilization for s in self.slaves), default=0.0)


@dataclass(frozen=True)
class PressureSignals:
    """Boiled-down scaling signals."""

    slaves_overloaded: bool
    master_overloaded: bool
    replication_lagging: bool

    @property
    def scale_out_helps(self) -> bool:
        """Adding a slave relieves slave-side pressure — but not a
        saturated master (the paper's central scaling limit)."""
        return (self.slaves_overloaded or self.replication_lagging) \
            and not self.master_overloaded


class ClusterMonitor:
    """Periodically samples a cluster; keeps bounded history."""

    def __init__(self, sim: Simulator, manager: ReplicationManager,
                 period: float = 10.0, history: int = 360):
        self.sim = sim
        self.manager = manager
        self.samples: deque[ClusterSample] = deque(maxlen=history)
        self._last_busy: dict[str, tuple[float, float]] = {}
        self._actor = Actor("monitor", self.sample_now, period)
        #: Cached gauge handles: publishing every ``period`` must not
        #: rebuild per-slave name strings and re-hash registry lookups
        #: each sample.  Keyed by registry identity — observability can
        #: be (re)attached between samples.
        self._gauge_registry = None
        self._master_gauges = None
        self._slave_gauges: dict[str, tuple] = {}
        self._gap_names: dict[str, str] = {}

    def start(self) -> None:
        self._actor.start(self.sim)

    def stop(self) -> None:
        self._actor.stop()

    def _utilization(self, instance) -> float:
        """Utilization since the previous sample of this instance."""
        now, busy = self.sim.now, instance.busy_time
        previous = self._last_busy.get(instance.name)
        self._last_busy[instance.name] = (now, busy)
        if previous is None:
            return 0.0
        then, busy_then = previous
        elapsed = now - then
        if elapsed <= 0:
            return 0.0
        return min((busy - busy_then) / (elapsed * instance.itype.cores),
                   1.0)

    def sample_now(self) -> ClusterSample:
        """Take (and record) one sample immediately."""
        master = self.manager.master
        slaves = tuple(
            SlaveSample(
                name=slave.name,
                relay_backlog=slave.relay_backlog,
                cpu_queue=slave.cpu_queue_length(),
                cpu_utilization=self._utilization(slave.instance),
                applied_position=slave.applied_position,
                seconds_behind=slave.seconds_behind_master(),
            )
            for slave in self.manager.slaves)
        sample = ClusterSample(
            time=self.sim.now,
            master_cpu_utilization=self._utilization(master.instance),
            master_cpu_queue=master.cpu_queue_length(),
            binlog_head=master.binlog.head_position,
            slaves=slaves)
        self.samples.append(sample)
        metrics = self.sim.metrics
        if metrics.enabled:
            if self._gauge_registry is not metrics:
                self._gauge_registry = metrics
                self._master_gauges = None
                self._slave_gauges.clear()
            master_gauges = self._master_gauges
            if master_gauges is None:
                master_gauges = self._master_gauges = (
                    metrics.gauge("master.cpu_util"),
                    metrics.gauge("master.cpu_queue"),
                    metrics.gauge("master.binlog_head"))
            cpu_util, cpu_queue, binlog_head = master_gauges
            cpu_util.set(sample.master_cpu_utilization)
            cpu_queue.set(sample.master_cpu_queue)
            binlog_head.set(sample.binlog_head)
            for entry in sample.slaves:
                handles = self._slave_gauges.get(entry.name)
                if handles is None:
                    prefix = intern(f"slave.{entry.name}")
                    handles = self._slave_gauges[entry.name] = (
                        metrics.gauge(prefix + ".relay_backlog"),
                        metrics.gauge(prefix + ".cpu_queue"),
                        metrics.gauge(prefix + ".cpu_util"),
                        metrics.gauge(prefix + ".seconds_behind"))
                backlog, queue, util, behind = handles
                backlog.set(entry.relay_backlog)
                queue.set(entry.cpu_queue)
                util.set(entry.cpu_utilization)
                behind.set(entry.seconds_behind)
        live = self.sim.live
        if live.enabled:
            # Live-plane-only signal: events committed on the master a
            # slave has not *applied* yet.  The seconds-behind oracle
            # reads the relay log, so a partition or a stalled dump
            # connection (nothing arriving) looks like zero lag to it
            # — the gap to the binlog head is what actually grows.
            for entry in sample.slaves:
                gap_name = self._gap_names.get(entry.name)
                if gap_name is None:
                    gap_name = self._gap_names[entry.name] = intern(
                        f"slave.{entry.name}.repl_gap")
                live.publish(gap_name, float(
                    sample.binlog_head - entry.applied_position))
        return sample

    @property
    def latest(self) -> Optional[ClusterSample]:
        return self.samples[-1] if self.samples else None


def detect_pressure(sample: ClusterSample,
                    cpu_threshold: float = 0.90,
                    backlog_threshold: int = 20,
                    lag_threshold_s: float = 2.0) -> PressureSignals:
    """Classify a sample into scaling signals."""
    return PressureSignals(
        slaves_overloaded=sample.max_slave_utilization >= cpu_threshold
        or any(s.cpu_queue > 10 for s in sample.slaves),
        master_overloaded=sample.master_cpu_utilization >= cpu_threshold
        and sample.master_cpu_queue > 5,
        replication_lagging=sample.worst_backlog > backlog_threshold
        or sample.worst_seconds_behind > lag_threshold_s,
    )
