"""Master-failover tests."""

import pytest

from repro.cloud import MASTER_PLACEMENT
from repro.db import DatabaseError
from repro.replication import (best_candidate, data_loss_window,
                               fail_master, promote)
from tests.replication.conftest import EU_WEST, run_process


def drive(sim, master, count, spacing=0.05):
    def writer(sim, master):
        for i in range(count):
            try:
                yield from master.perform(
                    f"INSERT INTO items (grp, v) VALUES ({i % 3}, {i})")
            except DatabaseError:
                return  # master died mid-stream; the client gives up
            yield sim.timeout(spacing)
    return sim.process(writer(sim, master))


def test_fail_master_rejects_clients(sim, manager, master):
    manager.add_slave(MASTER_PLACEMENT)
    fail_master(manager)

    def client(master):
        yield from master.perform("SELECT 1")

    process = sim.process(client(master))
    with pytest.raises(DatabaseError):
        sim.run()


def test_fail_master_requires_master(sim, manager):
    with pytest.raises(DatabaseError):
        fail_master(manager)


def test_best_candidate_is_most_up_to_date(sim, manager, master):
    near = manager.add_slave(MASTER_PLACEMENT, name="near")
    far = manager.add_slave(EU_WEST, name="far")
    drive(sim, master, 10, spacing=0.0)
    sim.run(until=0.08)  # near has received; far's events still in flight
    assert near.received_position > far.received_position
    assert best_candidate(manager) is near


def test_best_candidate_requires_slaves(sim, manager, master):
    with pytest.raises(DatabaseError):
        best_candidate(manager)


def test_promote_refuses_online_master(sim, manager, master):
    manager.add_slave(MASTER_PLACEMENT)

    def attempt(manager):
        yield from promote(manager)

    process = sim.process(attempt(manager))
    with pytest.raises(DatabaseError):
        sim.run()


def test_promotion_preserves_received_writes(sim, manager, master):
    slave = manager.add_slave(MASTER_PLACEMENT)
    drive(sim, master, 20, spacing=0.05)
    sim.run()
    reference = manager.data_checksum(master)
    fail_master(manager)

    def run_promote(manager):
        new_master = yield from promote(manager)
        return new_master

    new_master = run_process(sim, run_promote(manager))
    assert manager.master is new_master
    assert manager.data_checksum(new_master) == reference
    assert new_master.instance is slave.instance
    assert manager.slaves == []


def test_new_master_serves_writes(sim, manager, master):
    manager.add_slave(MASTER_PLACEMENT)
    manager.add_slave(MASTER_PLACEMENT)
    drive(sim, master, 5, spacing=0.02)
    sim.run()
    fail_master(manager)

    def failover_and_write(manager):
        new_master = yield from promote(manager)
        yield from new_master.perform(
            "INSERT INTO items (grp, v) VALUES (9, 999)")
        return new_master

    new_master = run_process(sim, failover_and_write(manager))
    assert new_master.admin(
        "SELECT COUNT(*) FROM items WHERE v = 999").result.scalar() == 1
    # The surviving slave replicates from the new master.
    sim.run(until=sim.now + 5.0)
    assert manager.all_caught_up()
    assert manager.verify_consistency()


def test_survivors_resync_from_new_master(sim, manager, master):
    near = manager.add_slave(MASTER_PLACEMENT, name="near")
    far = manager.add_slave(EU_WEST, name="far")
    drive(sim, master, 15, spacing=0.05)
    sim.run()
    fail_master(manager)

    def failover(manager):
        yield from promote(manager)

    run_process(sim, failover(manager))
    assert len(manager.slaves) == 1
    survivor = manager.slaves[0]
    assert survivor.name == "far"
    assert manager.data_checksum(survivor) == \
        manager.data_checksum(manager.master)


def test_async_failover_can_lose_unreplicated_writes(sim, manager, master):
    """The paper's §II data-loss caveat: writes committed on the master
    but not yet received by any slave vanish on failover."""
    slave = manager.add_slave(EU_WEST)
    drive(sim, master, 10, spacing=0.0)
    # Fail the master while the tail of the binlog is still in flight
    # across the ocean.
    sim.run(until=0.05)
    committed_on_master = master.admin(
        "SELECT COUNT(*) FROM items").result.scalar()
    dead = fail_master(manager)
    received = slave.received_position

    def failover(manager):
        new_master = yield from promote(manager)
        return new_master

    new_master = run_process(sim, failover(manager))
    surviving = new_master.admin(
        "SELECT COUNT(*) FROM items").result.scalar()
    lost = committed_on_master - surviving
    assert lost > 0
    assert dead.binlog.head_position > received


def test_crash_right_after_add_slave_loses_nothing(sim, manager, master):
    """Regression: add_slave left ``received_position`` at 0 until the
    first event arrived, so a master crash before the first heartbeat
    ranked the freshly synced slave last and reported the whole
    pre-load as the lost-commit window."""
    for i in range(5):
        master.admin(f"INSERT INTO items (grp, v) VALUES (0, {i})")
    stale = manager.add_slave(MASTER_PLACEMENT, name="a-stale")
    master.admin("INSERT INTO items (grp, v) VALUES (1, 99)")
    fresh = manager.add_slave(EU_WEST, name="b-fresh")
    head = master.binlog.head_position
    assert fresh.received_position == fresh.applied_position == head
    assert stale.received_position == head - 1  # nothing shipped yet
    dead = fail_master(manager)
    assert best_candidate(manager) is fresh
    assert data_loss_window(dead, fresh) == 0

    def failover(manager):
        return (yield from promote(manager))

    new_master = run_process(sim, failover(manager))
    assert new_master.instance is fresh.instance
    assert new_master.admin(
        "SELECT COUNT(*) FROM items").result.scalar() == 6


def test_promoted_master_keeps_auto_increment_continuity(sim, manager,
                                                         master):
    manager.add_slave(MASTER_PLACEMENT)
    drive(sim, master, 5, spacing=0.02)
    sim.run()
    fail_master(manager)

    def failover_and_write(manager):
        new_master = yield from promote(manager)
        result = yield from new_master.perform(
            "INSERT INTO items (grp, v) VALUES (0, 123)")
        return result.result.lastrowid

    lastrowid = run_process(sim, failover_and_write(manager))
    assert lastrowid == 6  # continues the sequence, no pk reuse


def test_proxy_repoints_after_failover(sim, manager, master):
    manager.add_slave(MASTER_PLACEMENT)
    manager.add_slave(MASTER_PLACEMENT)
    proxy = manager.build_proxy(MASTER_PLACEMENT)
    fail_master(manager)

    def failover(manager):
        new_master = yield from promote(manager)
        return new_master

    new_master = run_process(sim, failover(manager))
    proxy.set_master(new_master)
    proxy.slaves = list(manager.slaves)
    from repro.sql import parse
    assert proxy.route(parse("INSERT INTO items (grp, v) VALUES (1, 1)")) \
        is new_master
    assert proxy.route(parse("SELECT 1")) in manager.slaves


# ---------------------------------------------------------------------------
# Regression: the drain loop in promote() yields, so everything
# validated before it is stale by the time the rebrand runs (RACE001).
# promote() must re-validate after draining.
# ---------------------------------------------------------------------------

def _pause_sql_thread(slave):
    """White-box: stall the SQL thread so the relay log accumulates a
    backlog and promote() is forced into its drain loop."""
    slave._sql_thread_process.interrupt("paused")
    slave._sql_thread_process = None


def test_promote_aborts_when_candidate_dies_mid_drain(sim, manager,
                                                      master):
    slave = manager.add_slave(MASTER_PLACEMENT)
    drive(sim, master, 10, spacing=0.01)
    sim.run(until=0.02)
    _pause_sql_thread(slave)
    sim.run(until=0.3)
    assert slave.relay_backlog > 0
    fail_master(manager)

    def attempt(manager):
        yield from promote(manager)

    sim.process(attempt(manager))

    def crash_candidate():
        yield sim.timeout(0.12)  # a couple of drain polls in
        slave.instance.crash()
        slave.online = False

    sim.process(crash_candidate())
    with pytest.raises(DatabaseError, match="failed while draining"):
        sim.run()
    # The abort left the cluster untouched: no half-promoted state.
    assert manager.master is master
    assert slave in manager.slaves


def test_promote_aborts_when_remastered_during_drain(sim, manager,
                                                     master):
    near = manager.add_slave(MASTER_PLACEMENT, name="near")
    spare = manager.add_slave(MASTER_PLACEMENT, name="spare")
    drive(sim, master, 10, spacing=0.01)
    sim.run(until=0.02)
    _pause_sql_thread(near)
    sim.run(until=0.3)
    assert near.relay_backlog > 0
    fail_master(manager)

    def slow_path(manager):
        # Deliberately picks the backlogged candidate: stuck draining.
        yield from promote(manager, candidate=near)

    def fast_path(manager):
        yield sim.timeout(0.12)
        # A competing promoter installs 'spare' while the slow path
        # is still in its drain loop (its re-sync also restarts the
        # stalled SQL thread, letting the drain finish).
        yield from promote(manager, candidate=spare)

    sim.process(slow_path(manager))
    fast = sim.process(fast_path(manager))
    with pytest.raises(DatabaseError, match="re-mastered"):
        sim.run()
    assert fast.triggered
    assert manager.master is not master


def test_promote_waits_for_event_popped_but_not_yet_executed(
        sim, manager, master):
    """Regression: the SQL thread pops an event off the relay log
    *before* it queues for a core, so under read pressure the backlog
    reads 0 while the last received commit has not executed.  The
    drain used to stop there; ``stop_replication`` then killed the
    thread and the promoted master silently lacked a commit that
    ``data_loss_window`` counted as received (reported loss: 0)."""
    slave = manager.add_slave(MASTER_PLACEMENT)

    def reader(slave):
        try:
            while True:
                yield from slave.perform("SELECT COUNT(*) FROM items")
        except DatabaseError:
            return  # the slave identity is retired by the promotion

    for _ in range(8):
        sim.process(reader(slave))
    drive(sim, master, 5, spacing=0.05)

    def rows(server):
        return server.admin(
            "SELECT COUNT(*) FROM items").result.scalar()

    # Stop the world at: everything received, relay log empty, the
    # last insert popped but still queued behind the readers.
    while not (rows(master) == 5 and slave.relay_backlog == 0
               and slave.received_position
               == master.binlog.head_position and rows(slave) < 5):
        sim.step()
    assert slave.instance.queue_length > 0
    dead = fail_master(manager)

    def failover(manager):
        new_master = yield from promote(manager)
        return new_master

    new_master = run_process(sim, failover(manager))
    assert data_loss_window(dead, slave) == 0
    assert rows(new_master) == 5
    # And the flag does not outlive the thread it described.
    assert not slave.apply_pending


def test_event_handed_to_a_parked_sql_thread_is_pending_at_once(
        sim, manager, master):
    """The same-instant residual of the regression above: ``Store.put``
    hands an event straight to a SQL thread parked on an empty relay
    log, so the backlog never counts it — and until the thread resumes
    (a later step of the same instant) nothing else did either, which
    let a ``promote`` poll landing in between stop replication under a
    received commit.  "Pending" moves in the step the event arrives."""
    slave = manager.add_slave(MASTER_PLACEMENT)
    sim.run()                         # SQL thread parked on the get
    master.detach_slave(slave)        # the test plays the dump thread
    master.admin("INSERT INTO items (grp, v) VALUES (0, 1)")
    (event,) = master.binlog.read_from(slave.received_position)
    slave.receive_event(event)        # the IO thread, sim not stepped
    assert slave.received_position == event.position
    assert slave.relay_backlog > 0 or slave.apply_pending
    sim.run()
    assert slave.applied_position == event.position
    assert slave.relay_backlog == 0 and not slave.apply_pending
