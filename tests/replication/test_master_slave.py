"""Master/slave replication pipeline tests."""

import pytest

from repro.cloud import MASTER_PLACEMENT
from repro.replication import OrderedChannel
from tests.replication.conftest import EU_WEST, US_EAST_B


def drive_writes(sim, master, count, spacing=0.1):
    def writer(sim, master):
        for i in range(count):
            yield from master.perform(
                f"INSERT INTO items (grp, v) VALUES ({i % 3}, {i})")
            yield sim.timeout(spacing)
    return sim.process(writer(sim, master))


def test_writes_reach_binlog(sim, manager, master):
    base = master.binlog.head_position  # setup DDL is binlogged too
    drive_writes(sim, master, 5)
    sim.run()
    assert master.binlog.head_position == base + 5
    texts = [e.statement for e in master.binlog.read_from(base)]
    assert all(t.startswith("INSERT INTO items") for t in texts)


def test_setup_ddl_is_binlogged(sim, manager, master):
    """MySQL binlogs DDL; the admin path must too, so late-attaching
    slaves stay consistent."""
    texts = [e.statement for e in master.binlog.read_from(0)]
    assert any(t.startswith("CREATE TABLE") for t in texts)
    assert any(t.startswith("CREATE INDEX") for t in texts)


def test_slave_applies_events_in_order(sim, manager, master):
    slave = manager.add_slave(MASTER_PLACEMENT)
    drive_writes(sim, master, 10)
    sim.run()
    assert slave.applied_position == master.binlog.head_position
    assert slave.events_applied == 10
    rows = slave.admin("SELECT v FROM items ORDER BY id").result.rows
    assert rows == [(i,) for i in range(10)]


def test_replicas_converge_to_master_state(sim, manager, master):
    slaves = [manager.add_slave(MASTER_PLACEMENT),
              manager.add_slave(US_EAST_B),
              manager.add_slave(EU_WEST)]
    drive_writes(sim, master, 20)
    sim.run()
    assert manager.all_caught_up()
    assert manager.verify_consistency()
    for slave in slaves:
        assert manager.data_checksum(slave) == \
            manager.data_checksum(master)


def test_mid_stream_slave_attach_syncs_snapshot_plus_tail(sim, manager,
                                                          master):
    drive_writes(sim, master, 5, spacing=0.1)
    sim.run()
    late = manager.add_slave(EU_WEST, name="late")
    assert late.start_position == master.binlog.head_position
    drive_writes(sim, master, 5, spacing=0.1)
    sim.run()
    assert late.applied_position == master.binlog.head_position
    assert manager.verify_consistency()
    # The late slave must not have re-applied the first five events.
    assert late.events_applied == 5


def test_detach_slave_stops_replication(sim, manager, master):
    slave = manager.add_slave(MASTER_PLACEMENT)
    drive_writes(sim, master, 3)
    sim.run()
    head_at_detach = master.binlog.head_position
    manager.remove_slave(slave)
    drive_writes(sim, master, 3)
    sim.run()
    assert slave.applied_position == head_at_detach
    assert master.binlog.head_position == head_at_detach + 3
    assert manager.slaves == []


def test_a_dump_path_fault_fails_the_run(sim, manager, master,
                                        monkeypatch):
    """Only the detach interrupt ends a dump thread quietly; any other
    error surfaces from ``sim.run`` instead of silently stalling
    replication to that slave."""
    slave = manager.add_slave(MASTER_PLACEMENT)

    def broken_send(payload, size_bytes=0):
        raise RuntimeError("replication channel fault")

    monkeypatch.setattr(master.channel_to(slave), "send", broken_send)
    drive_writes(sim, master, 1)
    with pytest.raises(RuntimeError, match="replication channel fault"):
        sim.run()
    assert slave.applied_position < master.binlog.head_position


def test_attach_same_slave_twice_rejected(sim, manager, master):
    slave = manager.add_slave(MASTER_PLACEMENT)
    with pytest.raises(ValueError):
        master.attach_slave(slave, manager.cloud.network)


def test_detach_unknown_slave_rejected(sim, manager, master):
    slave = manager.add_slave(MASTER_PLACEMENT)
    manager.remove_slave(slave)
    with pytest.raises(ValueError):
        manager.remove_slave(slave)


def test_cross_region_slave_lags_by_network_latency(sim, manager, master):
    near = manager.add_slave(MASTER_PLACEMENT, name="near")
    far = manager.add_slave(EU_WEST, name="far")
    applied_at = {}
    target = master.binlog.head_position + 1

    def writer(sim, master):
        yield from master.perform("INSERT INTO items (grp, v) VALUES (0, 1)")

    def watch(sim, slave):
        while slave.applied_position < target:
            yield sim.timeout(0.001)
        applied_at[slave.name] = sim.now

    sim.process(writer(sim, master))
    sim.process(watch(sim, near))
    sim.process(watch(sim, far))
    sim.run(until=2.0)
    assert applied_at["far"] - applied_at["near"] > 0.10  # ~173ms vs ~0


def test_relay_backlog_grows_when_apply_starved(sim, manager, master):
    """Saturate the slave CPU with reads; writesets queue in the relay
    log — the mechanism behind the paper's delay blow-up."""
    slave = manager.add_slave(MASTER_PLACEMENT)
    master.admin("INSERT INTO items (grp, v) VALUES (0, 0)")
    # (admin does not binlog... use perform-driven writes below.)

    def reader(sim, slave):
        while True:
            yield from slave.perform("SELECT COUNT(*) FROM items")

    for _ in range(4):
        sim.process(reader(sim, slave))
    drive_writes(sim, master, 50, spacing=0.01)
    sim.run(until=3.0)
    assert slave.relay_backlog > 0
    assert slave.seconds_behind_master() > 0.1


def test_slave_lag_positions(sim, manager, master):
    slave = manager.add_slave(EU_WEST)
    drive_writes(sim, master, 5, spacing=0.0)
    sim.run(until=0.05)  # events still in flight to eu-west
    lags = master.slave_lag_positions()
    assert lags[slave.name] > 0
    sim.run()
    assert master.slave_lag_positions()[slave.name] == 0


# ---------------------------------------------------------------- channel
def test_ordered_channel_preserves_fifo(sim, cloud):
    inbox = []
    channel = OrderedChannel(cloud.network, MASTER_PLACEMENT, EU_WEST,
                             on_delivery=inbox.append)
    for i in range(50):
        channel.send(i)
    sim.run()
    assert inbox == list(range(50))


def test_ordered_channel_pipelines(sim, cloud):
    """Sending N messages back-to-back must NOT take N round trips."""
    inbox = []
    channel = OrderedChannel(cloud.network, MASTER_PLACEMENT, EU_WEST,
                             on_delivery=inbox.append)
    for i in range(100):
        channel.send(i)
    sim.run()
    # One-way latency is ~0.173 s; serialized delivery would need ~17 s.
    assert sim.now < 1.0
    assert len(inbox) == 100


def test_ordered_channel_counts_bytes(sim, cloud):
    channel = OrderedChannel(cloud.network, MASTER_PLACEMENT, EU_WEST,
                             on_delivery=lambda _p: None)
    before = cloud.network.bytes_sent
    channel.send("x", size_bytes=100)
    assert cloud.network.bytes_sent == before + 100
    assert channel.messages_sent == 1
