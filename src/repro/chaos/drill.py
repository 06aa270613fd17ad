"""Fault drills: run a workload, break the cluster, measure recovery.

A drill is a scaled-down experiment cell — one
:class:`~repro.experiments.deployment.Deployment` on a validated
master, slaves spread over zones, the cluster monitor always on, a
retrying 50/50 driver — with three extra actors:

* a :class:`~repro.chaos.injector.ChaosInjector` executing the fault
  schedule;
* a :class:`FailoverController` that polls master liveness and, on a
  crash, promotes the best eligible slave and re-points the proxy —
  measuring time-to-detect, time-to-recover and the *actual*
  data-loss window (§II's asynchronous-replication caveat);
* a :class:`ReplicaHealthPolicy` that evicts offline or too-stale
  slaves from read balancing and readmits them once they catch up.

The result is a :class:`RecoveryReport` — a canonical JSON document
(sorted keys, rounded floats, content digest) that is byte-identical
for a given seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from ..cloud.regions import DEFAULT_CATALOG
from ..db.errors import DatabaseError
from ..experiments.deployment import Deployment
from ..obs import Observability
from ..replication.failover import (best_candidate, data_loss_window,
                                    promote)
from ..replication.manager import ReplicationManager
from ..replication.proxy import ReadWriteSplitProxy
from ..replication.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..sim import Actor, Simulator
from ..workloads.cloudstone import MIX_50_50, Phases
from .faults import Fault, FaultSchedule
from .injector import ChaosInjector

__all__ = ["Drill", "DrillConfig", "DrillResult", "FailoverController",
           "ReplicaHealthPolicy", "default_schedule", "finish_drill",
           "run_drill", "start_drill", "render_report_text"]

#: Slave placements, in attachment order: one local replica, one
#: cross-region replica (so partitions and latency surges bite), then
#: spares around the catalogue.
_SLAVE_ZONES = ("us-east-1a", "eu-west-1a", "us-east-1b", "us-west-1a",
                "eu-west-1b", "ap-southeast-1a")


@dataclass(frozen=True)
class DrillConfig:
    """One fault drill's knobs (defaults = the canonical drill)."""

    seed: int = 0
    n_users: int = 20
    n_slaves: int = 2
    data_size: int = 150
    think_time_mean: float = 5.0
    baseline_duration: float = 30.0
    phases: Phases = field(default_factory=lambda: Phases(
        ramp_up=10.0, steady=150.0, ramp_down=10.0))
    heartbeat_interval: float = 1.0
    monitor_period: float = 2.5
    #: Failover-controller liveness poll period (bounds detect time).
    detect_period: float = 0.5
    #: Health policy: staleness that evicts / readmits a slave.
    evict_behind_s: float = 5.0
    readmit_behind_s: float = 1.0
    health_period: float = 1.0
    retry: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY
    #: None runs :func:`default_schedule`.
    schedule: Optional[FaultSchedule] = None
    #: Seconds allowed for post-drill replication drain before the
    #: consistency verdict.
    drain_timeout: float = 60.0


def default_schedule() -> FaultSchedule:
    """The canonical drill: every fault kind, master crash last.

    Times are relative to workload start (a 10/150/10 phase run).  The
    two ``repl-stall`` faults straddling the ``master-crash`` freeze
    both replication channels first, so commits acknowledged during
    the stall demonstrably die with the master — a reliably nonzero
    data-loss window.
    """
    return FaultSchedule([
        Fault(at=20.0, kind="latency", target="us-east-1|eu-west-1",
              duration=20.0, severity=120.0),
        Fault(at=30.0, kind="slave-slow", target="slave-1",
              duration=30.0, severity=0.35),
        Fault(at=70.0, kind="partition", target="us-east-1|eu-west-1",
              duration=15.0),
        Fault(at=95.0, kind="repl-stall", target="slave-2",
              duration=10.0),
        Fault(at=110.0, kind="slave-crash", target="slave-2",
              duration=15.0),
        Fault(at=128.0, kind="repl-stall", target="slave-1",
              duration=20.0),
        Fault(at=128.5, kind="repl-stall", target="slave-2",
              duration=20.0),
        # Off the controller's 0.5 s poll grid, so the reported
        # time-to-detect reflects the polling delay instead of a
        # same-instant coincidence.
        Fault(at=133.2, kind="master-crash"),
    ])


class FailoverController:
    """Detects a dead master and drives the promotion procedure."""

    def __init__(self, sim: Simulator, manager: ReplicationManager,
                 proxy: ReadWriteSplitProxy, period: float = 0.5):
        self.sim = sim
        self.manager = manager
        self.proxy = proxy
        #: One dict per completed failover (a drill can have several).
        self.failovers: list[dict] = []
        self._actor = Actor("failover-controller", self._poll, period)

    def start(self) -> None:
        self._actor.start(self.sim)

    def stop(self) -> None:
        self._actor.stop()

    def _poll(self):
        """One liveness poll; on a dead master, promote and re-point."""
        dead = self.manager.master
        if dead is None or dead.online:
            return
        detected_at = self.sim.now
        try:
            candidate = best_candidate(self.manager)
        except DatabaseError:
            # Nothing promotable yet (every slave down too): keep
            # polling — a restart brings one back online.
            return
        with self.sim.tracer.span("chaos.failover", category="chaos",
                                  track="chaos",
                                  candidate=candidate.name):
            try:
                new_master = yield from promote(self.manager, candidate)
            except DatabaseError:
                # The candidate died (or the cluster changed) while
                # draining; the next poll picks a fresh one.
                return
            self.proxy.set_master(new_master)
        lost = data_loss_window(dead, candidate)
        self.failovers.append({
            "detected_at": detected_at,
            "promoted": new_master.name,
            "recovered_at": self.sim.now,
            "lost_commits": lost,
            "dead_binlog_head": dead.binlog.head_position,
            "candidate_received": candidate.received_position,
        })


class ReplicaHealthPolicy:
    """Evicts stale/offline slaves from reads; readmits on recovery."""

    def __init__(self, sim: Simulator, manager: ReplicationManager,
                 proxy: ReadWriteSplitProxy, period: float = 1.0,
                 evict_behind_s: float = 5.0,
                 readmit_behind_s: float = 1.0):
        if readmit_behind_s > evict_behind_s:
            raise ValueError("readmit threshold must not exceed the "
                             "evict threshold (hysteresis)")
        self.sim = sim
        self.manager = manager
        self.proxy = proxy
        self.evict_behind_s = evict_behind_s
        self.readmit_behind_s = readmit_behind_s
        self._actor = Actor("replica-health", self.check_now, period)

    def start(self) -> None:
        self._actor.start(self.sim)

    def stop(self) -> None:
        self._actor.stop()

    def check_now(self) -> None:
        """One health pass over the cluster."""
        for slave in self.manager.slaves:
            if not slave.online or not slave.instance.running:
                self.proxy.evict(slave, reason="offline")
                continue
            behind = slave.seconds_behind_master()
            if behind > self.evict_behind_s:
                self.proxy.evict(slave, reason="stale")
            elif self.proxy.is_evicted(slave) \
                    and behind <= self.readmit_behind_s:
                self.proxy.readmit(slave)


@dataclass
class Drill:
    """A started drill: run ``deployment.sim`` in slices (or not at
    all), then :func:`finish_drill`."""

    config: DrillConfig
    deployment: Deployment
    injector: ChaosInjector
    controller: FailoverController
    health: ReplicaHealthPolicy


@dataclass
class DrillResult:
    """The recovery report plus the deployment for inspection."""

    report: dict
    deployment: Deployment
    #: With an SLO spec: the ``incidents.json`` payload, carrying the
    #: detection scorecard against the injected schedule.
    incidents: Optional[dict]
    #: As executed; fault times count from ``deployment.workload_start``.
    schedule: FaultSchedule


def _round(value: float, digits: int = 6) -> float:
    return round(float(value), digits)


def _build_report(drill: Drill, consistency: dict,
                  slo_section: Optional[dict]) -> dict:
    config, cell = drill.config, drill.deployment
    schedule = drill.injector.schedule
    generator, proxy, pool = cell.generator, cell.proxy, cell.pool
    crash_times = [when for when, fault, action, _note
                   in drill.injector.log
                   if fault.kind == "master-crash" and action == "begin"]
    failover: Optional[dict] = None
    if drill.controller.failovers:
        event = drill.controller.failovers[0]
        crash_at = crash_times[0] if crash_times \
            else event["detected_at"]
        failover = {
            "crash_at": _round(crash_at),
            "detected_at": _round(event["detected_at"]),
            "time_to_detect_s": _round(event["detected_at"] - crash_at),
            "promoted": event["promoted"],
            "recovered_at": _round(event["recovered_at"]),
            "time_to_recover_s": _round(event["recovered_at"]
                                        - crash_at),
            "lost_commits": event["lost_commits"],
            "dead_binlog_head": event["dead_binlog_head"],
            "candidate_received": event["candidate_received"],
        }

    baseline_max = 0.0
    workload_max = 0.0
    per_slave_max: dict[str, float] = {}
    for sample in cell.monitor.samples:
        in_baseline = sample.time <= cell.workload_start
        for slave in sample.slaves:
            if in_baseline:
                baseline_max = max(baseline_max, slave.seconds_behind)
            else:
                workload_max = max(workload_max, slave.seconds_behind)
                per_slave_max[slave.name] = max(
                    per_slave_max.get(slave.name, 0.0),
                    slave.seconds_behind)
    spike_ratio = workload_max / max(baseline_max, 1e-3)

    report = {
        "seed": config.seed,
        "config": {
            "users": config.n_users,
            "slaves": config.n_slaves,
            "data_size": config.data_size,
            "baseline_s": _round(config.baseline_duration),
            "phases_s": [_round(config.phases.ramp_up),
                         _round(config.phases.steady),
                         _round(config.phases.ramp_down)],
            "retry": None if config.retry is None else {
                "max_attempts": config.retry.max_attempts,
                "base_backoff_s": _round(config.retry.base_backoff),
                "acquire_timeout_s":
                    None if config.retry.acquire_timeout is None
                    else _round(config.retry.acquire_timeout),
            },
        },
        "schedule": {
            "faults": len(schedule),
            "digest": schedule.digest(),
            "timeline": schedule.timeline().splitlines(),
        },
        "applied": drill.injector.timeline(),
        "failover": failover,
        "staleness": {
            "baseline_max_s": _round(baseline_max),
            "workload_max_s": _round(workload_max),
            "spike_ratio": _round(spike_ratio, 3),
            "per_slave_max_s": {name: _round(value)
                                for name, value
                                in sorted(per_slave_max.items())},
        },
        "driver": {
            "steady_throughput_ops": _round(
                generator.steady_throughput(), 3),
            "operations": int(sum(generator.op_counts.values())),
            "errors": generator.errors,
            "retries": generator.retries,
            "pool_timeouts": generator.pool_timeouts,
        },
        "routing": {
            "evictions": proxy.evictions,
            "readmissions": proxy.readmissions,
            "reads_routed": proxy.reads_routed,
            "writes_routed": proxy.writes_routed,
        },
        "pool": {
            "borrows": pool.total_borrows,
            "timeouts": pool.timeouts,
            "mean_wait_s": _round(pool.mean_wait_time),
        },
        "consistency": consistency,
    }
    if cell.observe is not None:
        from ..obs.export import metrics_jsonl
        metrics_digest = hashlib.sha256(metrics_jsonl(
            cell.observe.metrics).encode("utf-8")).hexdigest()
        report["observability"] = {
            "spans": len(cell.observe.tracer.spans),
            "droppedSpans": cell.observe.tracer.dropped,
            "metricsDigest": metrics_digest,
        }
    else:
        report["observability"] = None
    if slo_section is not None:
        # Key present only for SLO-carrying drills, so plain drills
        # stay byte-identical to their pre-SLO artifacts.
        report["slo"] = slo_section
    canonical = json.dumps(report, sort_keys=True,
                           separators=(",", ":"))
    report["digest"] = hashlib.sha256(
        canonical.encode("utf-8")).hexdigest()
    return report


def start_drill(config: DrillConfig = DrillConfig(),
                observe: Optional[Observability] = None,
                sanitizer=None, slo=None) -> Drill:
    """Bring the cluster up to the start of the workload phase with
    the users and the drill's three actors started, nothing run yet."""
    cell = Deployment(config.seed, observe, sanitizer, slo)
    # A validated master (the paper's §IV-A advice) keeps the drill's
    # signal on the *injected* faults, not the instance lottery.
    cell.provision(
        config.data_size,
        [DEFAULT_CATALOG.placement(_SLAVE_ZONES[i % len(_SLAVE_ZONES)])
         for i in range(config.n_slaves)],
        config.heartbeat_interval, pin_master=True,
        monitor_period=config.monitor_period)
    cell.run_baseline(config.baseline_duration)
    cell.start_workload(MIX_50_50, config.n_users,
                        config.think_time_mean, config.phases,
                        retry=config.retry)
    sim, manager, proxy = cell.sim, cell.manager, cell.proxy

    schedule = config.schedule if config.schedule is not None \
        else default_schedule()
    schedule.validate_targets(
        [slave.name for slave in manager.slaves],
        region_names=DEFAULT_CATALOG.region_names)
    injector = ChaosInjector(sim, manager, cell.cloud.network, schedule,
                             proxy=proxy, offset=cell.workload_start)
    injector.start()
    controller = FailoverController(sim, manager, proxy,
                                    period=config.detect_period)
    controller.start()
    health = ReplicaHealthPolicy(
        sim, manager, proxy, period=config.health_period,
        evict_behind_s=config.evict_behind_s,
        readmit_behind_s=config.readmit_behind_s)
    health.start()
    return Drill(config, cell, injector, controller, health)


def finish_drill(drill: Drill) -> DrillResult:
    """Run what is left of the workload, stop the actors, drain
    replication for the consistency verdict and build the report."""
    cell, schedule = drill.deployment, drill.injector.schedule
    cell.run_workload()
    drill.injector.stop()
    drill.controller.stop()
    drill.health.stop()
    consistency = cell.drain_and_verify(drill.config.drain_timeout)

    detection = slo_section = None
    if cell.live is not None:
        from ..obs.live import score_detection
        detection = score_detection(cell.live.incidents, schedule,
                                    offset=cell.workload_start)
    incidents = cell.finish(detection=detection)
    if incidents is not None:
        slo_section = {
            "spec": incidents["spec"],
            "fired": incidents["fired"],
            "resolved": incidents["resolved"],
            "detected": detection["detected"],
            "scored": detection["scored"],
            "incidentsDigest": incidents["digest"],
        }
    report = _build_report(drill, consistency, slo_section)
    return DrillResult(report, cell, incidents, schedule)


def run_drill(config: DrillConfig = DrillConfig(),
              observe: Optional[Observability] = None,
              sanitizer=None, slo=None) -> DrillResult:
    """Execute one fault drill; deterministic per ``config.seed``.

    ``observe`` and ``sanitizer`` only watch: the recovery report is
    byte-identical with or without them (when no race fires).  With
    ``slo`` the alerts are evaluated at sim-time while the faults
    land, the detection scorecard grades fire-times against the
    injected schedule, and the report gains an ``slo`` section.
    """
    return finish_drill(start_drill(config, observe, sanitizer, slo))


def render_report_text(report: dict) -> str:
    """The human-readable recovery report."""
    lines = [
        f"chaos drill — seed {report['seed']}",
        f"schedule: {report['schedule']['faults']} faults, "
        f"digest {report['schedule']['digest'][:16]}…",
        "",
        "fault timeline (applied):",
    ]
    lines.extend(f"  {line}" for line in report["applied"])
    lines.append("")
    failover = report["failover"]
    if failover is None:
        lines.append("failover: none (master survived)")
    else:
        lines.extend([
            "failover:",
            f"  crash at           t={failover['crash_at']:.3f}s",
            f"  time to detect     {failover['time_to_detect_s']:.3f}s",
            f"  promoted           {failover['promoted']}",
            f"  time to recover    "
            f"{failover['time_to_recover_s']:.3f}s",
            f"  lost commits       {failover['lost_commits']} "
            f"(binlog {failover['dead_binlog_head']} vs received "
            f"{failover['candidate_received']})",
        ])
    staleness = report["staleness"]
    lines.extend([
        "",
        "staleness:",
        f"  baseline max       {staleness['baseline_max_s']:.3f}s",
        f"  workload max       {staleness['workload_max_s']:.3f}s "
        f"(spike ×{staleness['spike_ratio']:.1f})",
    ])
    for name, value in staleness["per_slave_max_s"].items():
        lines.append(f"    {name:<12s}     {value:.3f}s")
    driver = report["driver"]
    routing = report["routing"]
    consistency = report["consistency"]
    lines.extend([
        "",
        f"driver: {driver['operations']} ops, "
        f"{driver['steady_throughput_ops']:.2f} ops/s steady, "
        f"{driver['errors']} errors, {driver['retries']} retries, "
        f"{driver['pool_timeouts']} pool timeouts",
        f"routing: {routing['evictions']} evictions, "
        f"{routing['readmissions']} readmissions",
        f"consistency: drained={consistency['drained']} "
        f"consistent={consistency['consistent']}",
    ])
    if report["observability"] is not None:
        obs = report["observability"]
        lines.append(f"observability: {obs['spans']} spans, "
                     f"{obs['droppedSpans']} dropped, metrics digest "
                     f"{obs['metricsDigest'][:16]}…")
    lines.append(f"report digest: {report['digest']}")
    return "\n".join(lines)
