"""Statement text is rendered where it is read, never where it is only
applied.

Statement-format replication ships text from the master alone: the
master's commit listener (its binlog) reads every commit, and a slave
re-executing the shipped text has no reader for the text of its own
writes — until it is promoted and its commit listener becomes a
binlog.
"""

import pytest

from repro.cloud import MASTER_PLACEMENT
from repro.db import engine as engine_module
from repro.replication import fail_master, promote
from tests.replication.conftest import run_process


@pytest.fixture
def renders(monkeypatch):
    """Every text the storage engine renders, in order."""
    texts = []
    real = engine_module.render_statement

    def counting(*args):
        texts.append(real(*args))
        return texts[-1]

    monkeypatch.setattr(engine_module, "render_statement", counting)
    return texts


def write(server, count, start=0):
    for i in range(start, start + count):
        server.admin(f"INSERT INTO items (grp, v) VALUES ({i % 3}, {i})")


def test_only_the_master_renders(sim, manager, master, renders):
    slaves = [manager.add_slave(MASTER_PLACEMENT) for _ in range(3)]
    renders.clear()
    write(master, 4)
    master.admin("BEGIN")
    master.admin("UPDATE items SET v = v + 1 WHERE grp = 0")
    master.admin("DELETE FROM items WHERE v = 2")
    master.admin("COMMIT")
    # Once per committed statement, and the binlog holds those texts.
    events = master.binlog.events[-6:]
    assert renders == [event.statement for event in events]
    sim.run()
    head = master.binlog.head_position
    assert all(slave.applied_position == head for slave in slaves)
    assert len(renders) == 6   # 18 applied events rendered nothing
    assert manager.verify_consistency()


def test_a_promoted_slave_renders_every_commit_from_promotion_on(
        sim, manager, master, renders):
    heir = manager.add_slave(MASTER_PLACEMENT, name="heir")
    manager.add_slave(MASTER_PLACEMENT, name="survivor")
    write(master, 3)
    sim.run()
    fail_master(manager)
    new_master = run_process(sim, promote(manager, heir))
    renders.clear()
    write(new_master, 4, start=10)
    assert renders == [event.statement
                       for event in new_master.binlog.events[-4:]]
    sim.run()
    assert len(renders) == 4   # the surviving slave applied silently
    assert manager.verify_consistency()
