"""ChaosInjector: each fault kind applied to a live cluster."""

from repro.chaos import ChaosInjector, Fault, FaultSchedule
from repro.cloud import MASTER_PLACEMENT
from repro.db import DatabaseError
from tests.chaos.conftest import EU_WEST, run_process


def inject(sim, cloud, manager, faults):
    injector = ChaosInjector(sim, manager, cloud.network,
                             FaultSchedule(faults))
    injector.start()
    return injector


def test_partition_heal_burst_flush_preserves_order(sim, cloud, manager,
                                                    master):
    slave = manager.add_slave(EU_WEST, name="far")
    injector = inject(sim, cloud, manager, [
        Fault(at=1.0, kind="partition", target="us-east-1|eu-west-1",
              duration=3.0)])
    channel = master.channel_to(slave)

    def writer(sim):
        yield from master.perform("INSERT INTO t (v) VALUES (0)")
        yield sim.timeout(2.0)  # mid-partition
        for i in range(1, 6):
            yield from master.perform(f"INSERT INTO t (v) VALUES ({i})")
        return channel.held_count, slave.applied_position

    held, applied_mid = run_process(sim, writer(sim))
    sim.run()
    assert held >= 5  # the burst was held, not dropped
    assert applied_mid < master.binlog.head_position
    rows = slave.admin("SELECT v FROM t ORDER BY id").result.rows
    assert rows == [(i,) for i in range(6)]  # flushed in binlog order
    assert manager.verify_consistency()
    actions = [(action, fault.kind)
               for _, fault, action, _ in injector.log]
    assert actions == [("begin", "partition"), ("end", "partition")]


def test_repl_stall_freezes_then_flushes(sim, cloud, manager, master):
    slave = manager.add_slave(MASTER_PLACEMENT, name="s1")
    inject(sim, cloud, manager, [
        Fault(at=1.0, kind="repl-stall", target="s1", duration=4.0)])

    def scenario(sim):
        yield sim.timeout(2.0)  # stall active
        for i in range(5):
            yield from master.perform(f"INSERT INTO t (v) VALUES ({i})")
        yield sim.timeout(1.0)  # still stalled: nothing ships
        return slave.received_position

    received_mid = run_process(sim, scenario(sim))
    sim.run()
    assert received_mid < master.binlog.head_position
    assert manager.all_caught_up()
    assert manager.verify_consistency()


def test_slave_slow_degrades_then_restores(sim, cloud, manager, master):
    slave = manager.add_slave(MASTER_PLACEMENT, name="s1")
    inject(sim, cloud, manager, [
        Fault(at=1.0, kind="slave-slow", target="s1", duration=2.0,
              severity=0.25)])

    def sampler(sim):
        yield sim.timeout(2.0)
        during = slave.instance.degradation
        yield sim.timeout(2.0)
        return during, slave.instance.degradation

    during, after = run_process(sim, sampler(sim))
    assert during == 0.25
    assert after == 1.0


def test_latency_surge_applies_and_clears(sim, cloud, manager, master):
    manager.add_slave(EU_WEST, name="far")
    inject(sim, cloud, manager, [
        Fault(at=1.0, kind="latency", target="us-east-1|eu-west-1",
              duration=2.0, severity=150.0)])

    def sampler(sim):
        yield sim.timeout(2.0)
        during = cloud.network.surge_ms(MASTER_PLACEMENT, EU_WEST)
        yield sim.timeout(2.0)
        return during, cloud.network.surge_ms(MASTER_PLACEMENT, EU_WEST)

    during, after = run_process(sim, sampler(sim))
    assert during == 150.0
    assert after == 0.0


def test_master_crash_is_one_shot_and_idempotent(sim, cloud, manager,
                                                 master):
    manager.add_slave(MASTER_PLACEMENT, name="s1")
    injector = inject(sim, cloud, manager, [
        Fault(at=1.0, kind="master-crash"),
        Fault(at=2.0, kind="master-crash"),  # already dead: skipped
    ])
    sim.run()
    assert not master.online
    assert not master.instance.running
    assert master.instance.crash_count == 1
    actions = [action for _, _, action, _ in injector.log]
    assert actions == ["begin", "skip"]


def test_unknown_slave_target_is_skipped_not_fatal(sim, cloud, manager,
                                                   master):
    injector = inject(sim, cloud, manager, [
        Fault(at=1.0, kind="slave-slow", target="ghost", duration=2.0,
              severity=0.5)])
    sim.run()
    assert [action for _, _, action, _ in injector.log] == ["skip"]


def test_crash_during_apply_consistent_after_resync(sim, cloud, manager,
                                                    master):
    """A slave killed mid-replication restarts, resyncs from a master
    snapshot and converges to an identical copy — no half-applied
    transactions survive the crash."""
    slave = manager.add_slave(EU_WEST, name="s1")
    inject(sim, cloud, manager, [
        Fault(at=1.0, kind="slave-crash", target="s1", duration=5.0)])

    def writer(sim):
        # Write across the whole fault window: before the crash, while
        # the slave is down, and after the restart+resync.
        for i in range(80):
            yield from master.perform(f"INSERT INTO t (v) VALUES ({i})")
            yield sim.timeout(0.1)

    run_process(sim, writer(sim))
    sim.run()
    assert slave.online and slave.instance.running
    assert slave.instance.crash_count == 1
    assert slave.instance.total_downtime == 5.0
    assert manager.all_caught_up()
    assert manager.verify_consistency()
    assert slave.admin("SELECT COUNT(*) FROM t").result.scalar() == 80


def test_injector_emits_fault_metrics(sim, cloud, manager, master):
    from repro.obs import Observability
    observe = Observability(monitor_period=None)
    observe.attach(sim)
    manager.add_slave(MASTER_PLACEMENT, name="s1")
    inject(sim, cloud, manager, [
        Fault(at=1.0, kind="slave-slow", target="s1", duration=2.0,
              severity=0.5)])
    sim.run()
    assert "chaos.faults" in observe.metrics
    assert "chaos.fault.slave-slow" in observe.metrics


def test_slave_restarting_without_a_master_is_promotable(sim, cloud,
                                                         manager, master):
    """Liveness (the master dies while every slave is down): the relay
    log lives in the VM's memory, so the restarted slave stands at
    what it *applied* — stale but online — and the failover controller
    promotes it instead of polling a masterless cluster forever."""
    from repro.chaos import FailoverController

    slave = manager.add_slave(MASTER_PLACEMENT, name="s1")
    slave.instance.slow_down(0.05)    # the relay log backs up
    proxy = manager.build_proxy(MASTER_PLACEMENT)
    injector = ChaosInjector(sim, manager, cloud.network, FaultSchedule([
        Fault(at=1.0, kind="master-crash"),
        Fault(at=1.1, kind="slave-crash", target="s1", duration=2.0),
    ]), proxy=proxy)
    injector.start()

    def writer(sim):
        yield sim.timeout(0.9)
        try:
            for i in range(20):
                yield from master.perform(
                    f"INSERT INTO t (v) VALUES ({i})")
        except DatabaseError:
            return  # the master died mid-stream

    sim.process(writer(sim))
    sim.run(until=3.2)                # restarted
    assert slave.online and slave.instance.running
    assert slave.relay_backlog == 0 and not slave.apply_pending
    # The crash took a relay-log tail with it.
    stood_at = slave.received_position
    assert stood_at == slave.applied_position \
        < master.binlog.head_position
    controller = FailoverController(sim, manager, proxy, period=0.5)
    controller.start()
    sim.run(until=4.0)
    controller.stop()
    (failover,) = controller.failovers
    assert failover["promoted"] == "s1"
    assert failover["lost_commits"] \
        == master.binlog.head_position - stood_at > 0
    assert manager.master.online and manager.master is not master
    assert [note for _, fault, action, note in injector.log
            if fault.kind == "slave-crash" and action == "end"] \
        == [f"slave=s1 restarted stale at position {stood_at}: "
            f"no online master to re-sync from"]
