"""One deployment: the paper's §III-B procedure, a step at a time.

Construct (simulator with the observing planes attached, random
streams, cloud, manager); ``provision`` (master, pre-loaded Cloudstone
data, fully-synchronized slaves, NTP, heartbeat plug-in);
``run_baseline`` (the idle window the relative-delay estimator
subtracts); ``start_workload`` and ``run_workload`` (proxy, pool and
users through ramp-up / steady / ramp-down); ``drain_and_verify``;
``finish``.

Everything a step builds is a plain attribute, so a caller starts its
own processes or runs ``sim`` in slices *between* steps.  The order of
construction is part of the determinism contract: server ids come from
a global counter and process-creation order is the kernel's tie-break.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..cloud.instance import CpuModel
from ..cloud.provisioner import Cloud
from ..cloud.regions import MASTER_PLACEMENT, Placement
from ..obs import Observability
from ..replication.heartbeat import HeartbeatPlugin
from ..replication.manager import ReplicationManager
from ..replication.monitor import ClusterMonitor
from ..replication.pool import ConnectionPool
from ..replication.retry import RetryPolicy
from ..sim import RandomStreams, Simulator
from ..workloads.cloudstone import (LoadGenerator, OperationMix, Phases,
                                    load_initial_data)

__all__ = ["Deployment"]


class Deployment:
    """One cluster, its client stack and whatever observes them."""

    def __init__(self, seed: int,
                 observe: Optional[Observability] = None,
                 sanitizer=None, slo=None, **manager_options):
        """``observe``, a :class:`~repro.analysis.race.RaceSanitizer`
        and ``slo`` (:class:`~repro.obs.live.SLOSpec` or ``LiveSession``)
        only watch the run.  The live plane taps an observed metrics
        registry, so a bare ``slo`` implies a default ``Observability``.
        ``manager_options``: :class:`ReplicationManager`'s keywords."""
        self.live = None
        if slo is not None:
            from ..obs.live import LiveSession
            self.live = LiveSession.of(slo)
            if observe is None:
                observe = Observability()
        self.observe = observe
        self.sanitizer = sanitizer
        self.sim = Simulator()
        for plane in (observe, sanitizer, self.live):
            if plane is not None:
                plane.attach(self.sim)
        self.streams = RandomStreams(seed)
        self.cloud = Cloud(self.sim, self.streams)
        self.manager = ReplicationManager(self.sim, self.cloud,
                                          **manager_options)
        self.state = self.heartbeat = self.monitor = None
        self.proxy = self.pool = self.generator = None
        #: Sim time the baseline ended; phase windows are relative to it.
        self.workload_start = 0.0

    def provision(self, data_size: int, placements: Sequence[Placement],
                  heartbeat_interval: float, pin_master: bool,
                  monitor_period: Optional[float]) -> None:
        """``pin_master``: validated nominal hardware (the paper's
        §IV-A advice); slaves always keep the physical-host lottery.
        ``monitor_period`` None: no cluster monitor."""
        master = self.manager.create_master(MASTER_PLACEMENT)
        if pin_master:
            master.instance.pin_hardware(
                CpuModel("Intel Xeon E5430 2.66GHz", 1.0))
        self.state = load_initial_data(master, data_size,
                                       self.streams.stream("loader"))
        self.heartbeat = HeartbeatPlugin(self.sim, master,
                                         interval=heartbeat_interval)
        self.heartbeat.install()
        for placement in placements:
            self.manager.add_slave(placement)
        self.heartbeat.start()
        if monitor_period is not None:
            self.monitor = ClusterMonitor(self.sim, self.manager,
                                          period=monitor_period)
            self.monitor.start()

    def run_baseline(self, duration: float) -> None:
        """The idle window before the workload starts."""
        with self.sim.tracer.span("phase.baseline", category="experiment",
                                  track="experiment"):
            self.sim.run(until=duration)
        self.workload_start = self.sim.now

    def start_workload(self, mix: OperationMix, n_users: int,
                       think_time_mean: float, phases: Phases,
                       pool_size: Optional[int] = None,
                       retry: Optional[RetryPolicy] = None) -> None:
        """Proxy, pool (``pool_size`` None: one connection per user)
        and the users, started."""
        self.proxy = self.manager.build_proxy(MASTER_PLACEMENT)
        self.pool = ConnectionPool(self.sim,
                                   max_active=pool_size or n_users)
        if self.sanitizer is not None:
            from ..analysis.race import instrument_cluster
            instrument_cluster(self.sanitizer, pool=self.pool,
                               proxy=self.proxy, manager=self.manager)
        self.generator = LoadGenerator(
            self.sim, self.proxy, self.pool, mix, self.state,
            self.streams, n_users=n_users,
            think_time_mean=think_time_mean, phases=phases, retry=retry)
        self.generator.start()

    def run_workload(self) -> None:
        """Run to the end of ramp-down; the span carries the analyze
        plane's window attributes.  Stops the heartbeat."""
        start, phases = self.workload_start, self.generator.phases
        with self.sim.tracer.span(
                "phase.workload", category="experiment",
                track="experiment", users=self.generator.n_users,
                slaves=len(self.manager.slaves), workload_start=start,
                steady_start=start + phases.steady_start,
                steady_end=start + phases.steady_end):
            self.sim.run(until=start + phases.total)
        self.heartbeat.stop()

    def drain_and_verify(self, timeout: float) -> dict:
        """Let replication catch up for at most ``timeout`` seconds,
        then compare table checksums — a crash-during-apply or a missed
        resync shows up here, not as a silently wrong report."""
        manager = self.manager
        drained = False
        if manager.master is not None and manager.master.online:
            drain = self.sim.process(
                manager.wait_until_caught_up(timeout=timeout))
            self.sim.run(until=self.sim.now + timeout + 1.0)
            drained = drain.triggered and bool(drain.value)
        return {"drained": drained,
                "consistent": drained and manager.verify_consistency(),
                "slaves": len(manager.slaves)}

    def finish(self, **sections) -> Optional[dict]:
        """Freeze the trace; with an SLO spec, the canonical incident
        timeline (``sections`` as ``LiveSession.document`` takes)."""
        if self.monitor is not None:
            self.monitor.stop()
        if self.observe is not None:
            self.observe.finalize()
        if self.live is None:
            return None
        return self.live.document(self.sim.now, **sections)
