"""ReplicationManager and semi-sync extension tests."""

import pytest

from repro.cloud import LARGE, MASTER_PLACEMENT, SMALL
from repro.replication import ReplicationManager
from tests.replication.conftest import EU_WEST, run_process


def test_create_master_defaults(sim, manager):
    master = manager.create_master(MASTER_PLACEMENT)
    assert master.instance.itype is SMALL
    assert master.placement == MASTER_PLACEMENT
    assert "cloudstone" in master.engine.databases


def test_single_master_enforced(sim, manager):
    manager.create_master(MASTER_PLACEMENT)
    with pytest.raises(RuntimeError):
        manager.create_master(MASTER_PLACEMENT)


def test_add_slave_requires_master(sim, manager):
    with pytest.raises(RuntimeError):
        manager.add_slave(MASTER_PLACEMENT)


def test_slave_naming_and_sizes(sim, manager, master):
    s1 = manager.add_slave(MASTER_PLACEMENT)
    s2 = manager.add_slave(EU_WEST, itype=LARGE, name="big")
    assert s1.name == "slave-1"
    assert s2.name == "big"
    assert s2.instance.itype is LARGE


def test_ntp_started_on_all_instances(sim, cloud):
    manager = ReplicationManager(sim, cloud, ntp_period=1.0)
    master = manager.create_master(MASTER_PLACEMENT)
    master.admin("CREATE TABLE items (id INTEGER PRIMARY KEY "
                 "AUTO_INCREMENT, grp INTEGER, v INTEGER)")
    slave = manager.add_slave(MASTER_PLACEMENT)
    master.instance.clock.step_to_error(0.5)
    slave.instance.clock.step_to_error(-0.5)
    sim.run(until=3.0)
    # Aggressive NTP should have pulled both clocks close to true time.
    assert abs(master.instance.clock.error()) < 0.05
    assert abs(slave.instance.clock.error()) < 0.05


def test_ntp_disabled(sim, cloud):
    manager = ReplicationManager(sim, cloud, ntp_period=None)
    master = manager.create_master(MASTER_PLACEMENT)
    master.instance.clock.step_to_error(0.5)
    sim.run(until=5.0)
    assert master.instance.clock.error() == pytest.approx(0.5, abs=0.01)


def test_snapshot_includes_preloaded_data(sim, manager, master):
    master.admin("INSERT INTO items (grp, v) VALUES (1, 10), (2, 20)")
    slave = manager.add_slave(MASTER_PLACEMENT)
    assert slave.admin("SELECT COUNT(*) FROM items").result.scalar() == 2


def test_wait_until_caught_up_timeout(sim, manager, master):
    slave = manager.add_slave(EU_WEST)

    def writer(master):
        yield from master.perform("INSERT INTO items (grp, v) VALUES (0, 1)")

    sim.process(writer(master))
    sim.run(until=0.001)  # let the write reach the binlog

    def check(manager):
        ok = yield from manager.wait_until_caught_up(timeout=0.01)
        return ok

    assert run_process(sim, check(manager), until=0.1) is False
    sim.run()
    assert manager.all_caught_up()


def test_verify_consistency_detects_divergence(sim, manager, master):
    slave = manager.add_slave(MASTER_PLACEMENT)
    master.admin("INSERT INTO items (grp, v) VALUES (0, 1)")  # not binlogged
    assert not manager.verify_consistency()


def test_heartbeat_table_excluded_from_consistency(sim, manager, master):
    from repro.replication import HeartbeatPlugin
    plugin = HeartbeatPlugin(sim, master, interval=0.5)
    plugin.install()
    slave = manager.add_slave(MASTER_PLACEMENT)
    slave.instance.clock.step_to_error(1.0)  # make ts values diverge
    plugin.start()
    sim.run(until=5.0)
    plugin.stop()
    sim.run(until=6.0)
    assert manager.all_caught_up()
    # Raw engine checksums differ (heartbeat ts), data checksums agree.
    assert master.engine.checksum() != slave.engine.checksum()
    assert manager.verify_consistency()


def test_remove_slave_terminates_instance(sim, manager, master):
    slave = manager.add_slave(MASTER_PLACEMENT)
    manager.remove_slave(slave)
    assert not slave.instance.running
    assert slave.instance.name not in manager.cloud.instances


def test_elastic_add_remove_cycle(sim, manager, master):
    """Grow and shrink the pool under write load; data stays correct."""
    def writer(sim, master):
        for i in range(30):
            yield from master.perform(
                f"INSERT INTO items (grp, v) VALUES ({i % 3}, {i})")
            yield sim.timeout(0.2)

    sim.process(writer(sim, master))
    sim.run(until=1.0)
    s1 = manager.add_slave(MASTER_PLACEMENT)
    sim.run(until=3.0)
    s2 = manager.add_slave(EU_WEST)
    sim.run(until=5.0)
    manager.remove_slave(s1)
    sim.run()
    assert manager.all_caught_up()
    assert manager.verify_consistency()
    assert s2.admin("SELECT COUNT(*) FROM items").result.scalar() == 30


# ----------------------------------------------------------- semi-sync
def test_semi_sync_blocks_until_slave_receipt(sim, cloud):
    manager = ReplicationManager(sim, cloud, semi_sync=True,
                                 ntp_period=None)
    master = manager.create_master(MASTER_PLACEMENT)
    master.admin("CREATE TABLE items (id INTEGER PRIMARY KEY "
                 "AUTO_INCREMENT, grp INTEGER, v INTEGER)")
    manager.add_slave(EU_WEST)

    def writer(sim, master):
        start = sim.now
        yield from master.perform("INSERT INTO items (grp, v) VALUES (0, 1)")
        return sim.now - start

    elapsed = run_process(sim, writer(sim, master))
    # Must include a full round trip to eu-west (~0.35 s), far more
    # than the asynchronous write service time (~0.02 s).
    assert elapsed > 0.3


def test_semi_sync_wakes_each_write_once_on_its_own_receipt(sim, cloud):
    """Three writes through one slave: each returns only once that
    slave has received it, and no acknowledgement wakes a write twice
    (a waiter kept past its own position would be fired again by the
    next acknowledgement, which the kernel refuses)."""
    manager = ReplicationManager(sim, cloud, semi_sync=True,
                                 ntp_period=None)
    master = manager.create_master(MASTER_PLACEMENT)
    master.admin("CREATE TABLE items (id INTEGER PRIMARY KEY "
                 "AUTO_INCREMENT, grp INTEGER, v INTEGER)")
    slave = manager.add_slave(EU_WEST)

    def writer(sim, master):
        receipts = []
        for value in range(3):
            start = sim.now
            yield from master.perform(
                "INSERT INTO items (grp, v) VALUES (0, ?)", [value])
            receipts.append((master.binlog.head_position,
                             slave.received_position, sim.now - start))
        return receipts

    receipts = run_process(sim, writer(sim, master))
    heads = [head for head, _, _ in receipts]
    assert heads == sorted(set(heads)) and len(heads) == 3
    for head, received, elapsed in receipts:
        assert received >= head
        assert elapsed > 0.3     # a round trip to eu-west each time


def test_async_write_does_not_wait_for_slaves(sim, manager, master):
    manager.add_slave(EU_WEST)

    def writer(sim, master):
        start = sim.now
        yield from master.perform("INSERT INTO items (grp, v) VALUES (0, 1)")
        return sim.now - start

    elapsed = run_process(sim, writer(sim, master))
    assert elapsed < 0.1


def test_semi_sync_without_slaves_does_not_block(sim, cloud):
    manager = ReplicationManager(sim, cloud, semi_sync=True,
                                 ntp_period=None)
    master = manager.create_master(MASTER_PLACEMENT)
    master.admin("CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT)")

    def writer(master):
        yield from master.perform("INSERT INTO t (id) VALUES (1)")
        return True

    assert run_process(sim, writer(master), until=5.0) is True
