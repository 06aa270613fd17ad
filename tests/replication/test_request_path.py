"""The one-frame request path leaks nothing when a statement fails.

``ReadWriteSplitProxy.execute`` crosses the network, is admitted by the
server, queues for a core, executes, holds the core and replies, all in
one generator.  Whatever stops it part-way — an interrupt while queued,
a crash of the server while it holds the core, a server that went
offline while the request was in flight — the proxy's outstanding
count, the core's grants and queue, the connection pool and the
tracer's open scoped spans must all come back to zero.
"""

import pytest

from repro.cloud import MASTER_PLACEMENT
from repro.db import DatabaseError
from repro.obs.tracer import Tracer
from repro.replication import ConnectionPool
from repro.sim import Interrupt
from tests.replication.conftest import EU_WEST

READ = "SELECT COUNT(*) FROM items"


@pytest.fixture
def path(sim, manager, master):
    sim.tracer = Tracer(sim)
    slave = manager.add_slave(MASTER_PLACEMENT, name="s0")
    proxy = manager.build_proxy(MASTER_PLACEMENT)
    return slave, proxy, ConnectionPool(sim, max_active=2)


def client(sim, proxy, pool, server, outcome):
    """One statement as the load generator runs it: borrow a
    connection, execute, always give the connection back."""
    connection = yield from pool.acquire()
    try:
        result = yield from proxy.execute(READ, server=server)
        outcome.append(("done", result.result.scalar()))
    except (Interrupt, DatabaseError) as exc:
        outcome.append((type(exc).__name__, sim.now))
    finally:
        pool.release(connection)


def assert_nothing_held(sim, slave, proxy, pool):
    assert proxy._outstanding[slave.name] == 0
    cpu = slave.instance.cpu
    assert (cpu.in_use, cpu.queue_length) == (0, 0)
    assert (pool.active, pool.waiting) == (0, 0)
    assert sim.tracer.open_scoped_spans == 0


def span_errors(sim):
    return {span.name: span.attributes.get("error")
            for span in sim.tracer.spans
            if span.name in ("proxy.execute", "db.execute")}


def test_interrupt_while_queued_for_a_core(sim, path):
    slave, proxy, pool = path
    cpu = slave.instance.cpu

    def hog():
        claim = cpu.request()
        try:
            yield claim
            yield sim.timeout(5.0)
        finally:
            cpu.release(claim)

    sim.process(hog())
    outcome = []
    victim = sim.process(client(sim, proxy, pool, slave, outcome))

    def interrupter():
        yield sim.timeout(1.0)
        assert cpu.queue_length == 1  # the victim waits for the core
        victim.interrupt("user gone")

    sim.process(interrupter())
    sim.run()
    assert outcome == [("Interrupt", 1.0)]
    assert slave.queries_served == 0
    assert span_errors(sim) == {"proxy.execute": "Interrupt",
                                "db.execute": "Interrupt"}
    assert_nothing_held(sim, slave, proxy, pool)


def test_server_crash_while_holding_the_core(sim, path):
    slave, proxy, pool = path
    cpu = slave.instance.cpu
    outcome = []
    sim.process(client(sim, proxy, pool, slave, outcome))

    def crasher():
        while cpu.in_use == 0:
            yield sim.timeout(0.0005)
        slave.online = False
        slave.instance.crash()
        # A statement arriving now is refused; the one on the core
        # drains, like connections timing out rather than vanishing.
        sim.process(client(sim, proxy, pool, slave, outcome))

    sim.process(crasher())
    sim.run()
    assert sorted(kind for kind, _value in outcome) \
        == ["DatabaseError", "done"]
    assert ("done", 0) in outcome
    assert slave.queries_served == 1
    assert_nothing_held(sim, slave, proxy, pool)


def test_target_offline_on_arrival(sim, manager, path):
    _near, proxy, pool = path
    slave = manager.add_slave(EU_WEST, name="far")  # ~173 ms away
    outcome = []
    sim.process(client(sim, proxy, pool, slave, outcome))

    def take_down():
        yield sim.timeout(0.1)  # after the send, before the arrival
        assert proxy._outstanding[slave.name] == 1
        slave.online = False

    sim.process(take_down())
    sim.run()
    assert [kind for kind, _value in outcome] == ["DatabaseError"]
    assert slave.instance.cpu.in_use == 0 and slave.queries_served == 0
    # Refused at admission: no db.execute span was ever opened.
    assert span_errors(sim) == {"proxy.execute": "DatabaseError"}
    assert_nothing_held(sim, slave, proxy, pool)
