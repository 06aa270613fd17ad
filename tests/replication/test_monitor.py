"""Cluster monitor tests."""

import math

import pytest

from repro.cloud import MASTER_PLACEMENT
from repro.replication import (ClusterMonitor, ClusterSample,
                               SlaveSample,
                               detect_pressure)


def make_sample(master_cpu=0.5, master_queue=0, slave_cpu=0.5,
                slave_queue=0, backlog=0, behind=0.0):
    slave = SlaveSample(name="s", relay_backlog=backlog,
                        cpu_queue=slave_queue,
                        cpu_utilization=slave_cpu,
                        applied_position=0, seconds_behind=behind)
    return ClusterSample(time=0.0, master_cpu_utilization=master_cpu,
                         master_cpu_queue=master_queue, binlog_head=0,
                         slaves=(slave,))


def test_monitor_validation(sim, manager, master):
    with pytest.raises(ValueError):
        ClusterMonitor(sim, manager, period=0.0)


@pytest.mark.parametrize("period", [-1.0, math.nan, math.inf])
def test_monitor_rejects_a_bad_period(sim, manager, master, period):
    # NaN used to pass and fail mid-run, at the first sample.
    with pytest.raises(ValueError, match="period"):
        ClusterMonitor(sim, manager, period=period)


def test_monitor_samples_on_period(sim, manager, master):
    manager.add_slave(MASTER_PLACEMENT)
    monitor = ClusterMonitor(sim, manager, period=5.0)
    monitor.start()
    sim.run(until=26.0)
    monitor.stop()
    assert len(monitor.samples) == 5
    assert monitor.latest.time == 25.0
    assert len(monitor.latest.slaves) == 1


def test_monitor_double_start_rejected(sim, manager, master):
    monitor = ClusterMonitor(sim, manager, period=5.0)
    monitor.start()
    with pytest.raises(RuntimeError):
        monitor.start()


def test_monitor_history_bounded(sim, manager, master):
    monitor = ClusterMonitor(sim, manager, period=1.0, history=10)
    monitor.start()
    sim.run(until=50.0)
    assert len(monitor.samples) == 10


def test_monitor_utilization_tracks_load(sim, manager, master):
    slave = manager.add_slave(MASTER_PLACEMENT)
    monitor = ClusterMonitor(sim, manager, period=10.0)
    monitor.start()

    def reader(sim, slave):
        while sim.now < 60.0:
            yield from slave.perform("SELECT 1")

    sim.process(reader(sim, slave))
    sim.run(until=61.0)
    latest = monitor.latest
    assert latest.max_slave_utilization > 0.9
    assert latest.master_cpu_utilization < 0.1


def test_monitor_backlog_and_lag(sim, manager, master):
    slave = manager.add_slave(MASTER_PLACEMENT)
    monitor = ClusterMonitor(sim, manager, period=5.0)
    monitor.start()

    def reader(sim, slave):
        while sim.now < 40.0:
            yield from slave.perform("SELECT COUNT(*) FROM items")

    def writer(sim, master):
        for i in range(400):
            yield from master.perform(
                f"INSERT INTO items (grp, v) VALUES (0, {i})")

    for _ in range(3):
        sim.process(reader(sim, slave))
    sim.process(writer(sim, master))
    sim.run(until=41.0)
    latest = monitor.latest
    assert latest.worst_backlog > 0
    assert latest.worst_seconds_behind > 0.0
    assert latest.binlog_head > 0


def test_sample_now_without_start(sim, manager, master):
    manager.add_slave(MASTER_PLACEMENT)
    monitor = ClusterMonitor(sim, manager, period=5.0)
    sample = monitor.sample_now()
    assert sample.time == 0.0
    assert monitor.latest is sample


# ------------------------------------------------------------- detection
def test_detect_no_pressure():
    signals = detect_pressure(make_sample())
    assert not signals.slaves_overloaded
    assert not signals.master_overloaded
    assert not signals.replication_lagging
    assert not signals.scale_out_helps


def test_detect_slave_cpu_pressure():
    signals = detect_pressure(make_sample(slave_cpu=0.95))
    assert signals.slaves_overloaded
    assert signals.scale_out_helps


def test_detect_replication_lag():
    signals = detect_pressure(make_sample(backlog=50))
    assert signals.replication_lagging
    assert signals.scale_out_helps
    signals = detect_pressure(make_sample(behind=5.0))
    assert signals.replication_lagging


def test_master_saturation_vetoes_scale_out():
    """The paper's limit: once the master saturates, adding slaves
    does not help."""
    signals = detect_pressure(make_sample(master_cpu=0.99,
                                          master_queue=20,
                                          slave_cpu=0.95))
    assert signals.master_overloaded
    assert not signals.scale_out_helps


def test_empty_cluster_sample_properties():
    sample = ClusterSample(time=0.0, master_cpu_utilization=0.0,
                           master_cpu_queue=0, binlog_head=0, slaves=())
    assert sample.worst_backlog == 0
    assert sample.worst_seconds_behind == 0.0
    assert sample.max_slave_utilization == 0.0


# ------------------------------------------------------ gauge publication
def test_sample_now_publishes_gauges(sim, manager, master):
    """Every sampled quantity must land in a metrics gauge — the trace
    analyzer reads utilizations and backlogs back from these."""
    from repro.obs import MetricsRegistry
    manager.add_slave(MASTER_PLACEMENT)
    slave_name = manager.slaves[0].name
    sim.metrics = MetricsRegistry(now_fn=lambda: sim.now)
    monitor = ClusterMonitor(sim, manager, period=5.0)
    monitor.start()
    sim.run(until=11.0)
    monitor.stop()
    names = {snapshot["name"] for snapshot in sim.metrics.snapshot()}
    prefix = f"slave.{slave_name}"
    assert {"master.cpu_util", "master.cpu_queue",
            "master.binlog_head", f"{prefix}.relay_backlog",
            f"{prefix}.cpu_queue", f"{prefix}.cpu_util",
            f"{prefix}.seconds_behind"} <= names
    cpu_util = sim.metrics.gauge(f"{prefix}.cpu_util").snapshot()
    # One sample per period, each with its sim-time stamp.
    assert cpu_util["times"] == [5.0, 10.0]
    assert all(0.0 <= v <= 1.0 for v in cpu_util["values"])


def test_gauges_silent_without_metrics(sim, manager, master):
    """With the null registry the monitor must not record anything."""
    manager.add_slave(MASTER_PLACEMENT)
    monitor = ClusterMonitor(sim, manager, period=5.0)
    monitor.start()
    sim.run(until=6.0)
    assert not sim.metrics.enabled
    assert len(monitor.samples) == 1
