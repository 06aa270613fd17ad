"""Run one experiment cell end to end.

A cell is one :class:`~repro.experiments.deployment.Deployment` taken
through the paper's §III-B steps with the cell's configuration; what
this module adds is the measurement: CPU-utilization and relay-backlog
probes around the steady stage, the average relative replication delay
per slave (steady-stage heartbeats against the idle baseline window)
and the bottleneck attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..obs import Observability
from ..obs.analyze import CellSignals, attribute_bottleneck
from ..replication.heartbeat import (average_relative_delay_ms,
                                     collect_window_delays)
from .config import ExperimentConfig
from .deployment import Deployment

__all__ = ["ExperimentResult", "measure_workload", "run_experiment"]


@dataclass
class ExperimentResult:
    """Everything measured in one cell."""

    config: ExperimentConfig
    throughput: float                  # steady-stage operations/second
    achieved_read_fraction: float
    mean_latency_s: float
    master_cpu: float                  # utilization over the steady stage
    slave_cpus: list[float]
    relative_delay_ms: Optional[float]  # averaged across slaves
    per_slave_delay_ms: list[float] = field(default_factory=list)
    heartbeat_counts: list[int] = field(default_factory=list)
    #: Steady-stage operation-latency percentiles, seconds.
    latency_percentiles_s: dict = field(default_factory=dict)
    #: Bottleneck attribution for the cell (resource + evidence), from
    #: :func:`repro.obs.analyze.attribute_bottleneck` — None only for
    #: hand-built results (tests, fixtures).
    diagnosis: Optional[dict] = None
    #: Canonical incident timeline (``incidents.json`` payload) when
    #: the run carried an SLO spec; None otherwise.
    incidents: Optional[dict] = None
    #: Watchboard transcript (empty unless the run's
    #: :class:`~repro.obs.live.LiveSession` asked for frames).  It
    #: copies ``LiveSession.render_watch()``, but ``bench/`` digests
    #: every field of a result, so dropping it moves its goldens.
    watch_text: str = ""

    @property
    def bottleneck(self) -> str:
        """The attributed resource (``none`` when undiagnosed)."""
        if self.diagnosis is None:
            return "none"
        return self.diagnosis["resource"]

    @property
    def max_slave_cpu(self) -> float:
        return max(self.slave_cpus) if self.slave_cpus else 0.0

    @property
    def saturated_resource(self) -> str:
        """Which tier hit the wall (>= 90 % busy), if any."""
        if self.master_cpu >= 0.90:
            return "master"
        if self.slave_cpus and self.max_slave_cpu >= 0.90:
            return "slaves"
        return "none"

    def row(self) -> str:
        delay = (f"{self.relative_delay_ms:12.2f}"
                 if self.relative_delay_ms is not None else "         n/a")
        return (f"{self.config.n_slaves:7d} {self.config.n_users:6d} "
                f"{self.throughput:10.2f} {delay} "
                f"{self.master_cpu:11.2f} {self.max_slave_cpu:10.2f} "
                f"{self.saturated_resource:>9s}")


def run_experiment(config: ExperimentConfig,
                   observe: Optional[Observability] = None,
                   sanitizer=None, slo=None) -> ExperimentResult:
    """Execute one cell and return its measurements.

    ``observe``, ``sanitizer`` and ``slo`` only watch (see
    :class:`Deployment`): results are identical with or without them.
    An observed run samples the cluster monitor every
    ``observe.monitor_period``; ``slo`` fills ``result.incidents``.
    """
    cell = Deployment(config.seed, observe, sanitizer, slo,
                      ntp_period=config.ntp_period)
    cell.provision(
        config.data_size,
        [config.location.slave_placement()] * config.n_slaves,
        config.heartbeat_interval, pin_master=config.validated_master,
        monitor_period=None if cell.observe is None
        else cell.observe.monitor_period)
    cell.run_baseline(config.baseline_duration)
    cell.start_workload(config.mix, config.n_users,
                        config.think_time_mean, config.phases,
                        pool_size=config.pool_size)
    return measure_workload(config, cell)


def measure_workload(config: ExperimentConfig,
                     cell: Deployment) -> ExperimentResult:
    """Run a started workload to its end and measure the steady stage."""
    sim, manager, generator = cell.sim, cell.manager, cell.generator
    master, heartbeat = manager.master, cell.heartbeat
    steady_start = cell.workload_start + config.phases.steady_start
    steady_end = cell.workload_start + config.phases.steady_end
    instances = [master.instance] + [s.instance for s in manager.slaves]
    # Two samples each: at the start and the end of the steady stage.
    busy: list[dict[str, float]] = []
    backlog: list[dict[str, int]] = []

    def cpu_probe(sim):
        for when in (steady_start, steady_end):
            yield sim.timeout(when - sim.now)
            busy.append({i.name: i.busy_time for i in instances})
            backlog.append({s.name: s.relay_backlog
                            for s in manager.slaves})

    sim.process(cpu_probe(sim))
    cell.run_workload()

    utilizations = {}
    window = steady_end - steady_start
    for instance in instances:
        used = busy[1][instance.name] - busy[0][instance.name]
        utilizations[instance.name] = min(
            used / (window * instance.itype.cores), 1.0)

    per_slave_delay: list[float] = []
    heartbeat_counts: list[int] = []
    windows = collect_window_delays(
        heartbeat, manager.slaves,
        [(0.0, cell.workload_start), (steady_start, steady_end)])
    for slave, (baseline, loaded) in zip(manager.slaves, windows):
        heartbeat_counts.append(len(loaded))
        if baseline and loaded:
            delay_ms = average_relative_delay_ms(loaded, baseline)
        elif baseline:
            # Every steady-stage heartbeat is still unapplied: the
            # delay is at least the whole steady stage.
            delay_ms = window * 1000.0
        else:
            continue
        per_slave_delay.append(delay_ms)
        if sim.metrics.enabled:
            sim.metrics.gauge(
                f"slave.{slave.name}.relative_delay_ms").set(delay_ms)
    relative_delay = (sum(per_slave_delay) / len(per_slave_delay)
                      if per_slave_delay else None)

    # Cell-level bottleneck attribution from the endpoint measurements
    # (ship share needs a recorded trace, so it is 0 here — network
    # verdicts come from ``repro analyze`` over the artifacts).
    backlog_slopes = {name: (backlog[1][name] - at_start) / window
                      for name, at_start in backlog[0].items()}
    signals = CellSignals(
        master_util=utilizations[master.instance.name],
        slave_utils={s.name: utilizations[s.instance.name]
                     for s in manager.slaves},
        backlog_slopes=backlog_slopes,
        pool_wait_share=min(
            cell.pool.mean_wait_time
            / max(generator.steady_mean_latency(), 1e-9), 1.0),
        ship_share=0.0,
        window=(steady_start, steady_end))
    diagnosis = attribute_bottleneck(signals)

    if sim.metrics.enabled:
        sim.metrics.gauge("result.throughput").set(
            generator.steady_throughput())
        sim.metrics.gauge("result.mean_latency_s").set(
            generator.steady_mean_latency())
        if relative_delay is not None:
            sim.metrics.gauge("result.relative_delay_ms").set(
                relative_delay)
    incidents = cell.finish(bottleneck=diagnosis.as_dict())

    return ExperimentResult(
        config=config,
        throughput=generator.steady_throughput(),
        achieved_read_fraction=generator.steady_read_write_ratio(),
        mean_latency_s=generator.steady_mean_latency(),
        master_cpu=utilizations[master.instance.name],
        slave_cpus=[utilizations[s.instance.name]
                    for s in manager.slaves],
        relative_delay_ms=relative_delay,
        per_slave_delay_ms=per_slave_delay,
        heartbeat_counts=heartbeat_counts,
        latency_percentiles_s=generator.steady_latency_percentiles(),
        diagnosis=diagnosis.as_dict(),
        incidents=incidents,
        watch_text="" if cell.live is None else cell.live.render_watch(),
    )
