"""Binlog tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Binlog
from repro.db.binlog import event_fields
from repro.db.rowevents import RowOp
from repro.sim import Simulator


def test_append_assigns_dense_positions():
    sim = Simulator()
    log = Binlog(sim, server_id=1)
    e1 = log.append("INSERT INTO t (a) VALUES (1)", "app", 10.0)
    e2 = log.append("INSERT INTO t (a) VALUES (2)", "app", 11.0)
    assert (e1.position, e2.position) == (1, 2)
    assert log.head_position == 2


def test_event_metadata():
    sim = Simulator()
    sim.run(until=5.0)
    log = Binlog(sim, server_id=7)
    event = log.append("UPDATE t SET a = 1", "app", 5.003)
    assert event.server_id == 7
    assert event.database == "app"
    assert event.commit_wallclock == 5.003
    assert event.commit_simtime == 5.0
    assert event.size_bytes > len(event.statement)


def test_read_from_cursor():
    sim = Simulator()
    log = Binlog(sim, server_id=1)
    for i in range(5):
        log.append(f"stmt{i}", "app", float(i))
    assert [e.statement for e in log.read_from(0)] == \
        ["stmt0", "stmt1", "stmt2", "stmt3", "stmt4"]
    assert [e.statement for e in log.read_from(3)] == ["stmt3", "stmt4"]
    assert log.read_from(5) == []
    assert [e.statement for e in log.read_from(0, max_events=2)] == \
        ["stmt0", "stmt1"]


def test_wait_for_fires_on_append():
    sim = Simulator()
    log = Binlog(sim, server_id=1)
    woke = []

    def dumper(sim, log):
        yield log.wait_for(0)
        woke.append(sim.now)

    def writer(sim, log):
        yield sim.timeout(3.0)
        log.append("stmt", "app", 3.0)

    sim.process(dumper(sim, log))
    sim.process(writer(sim, log))
    sim.run()
    assert woke == [3.0]


def test_wait_for_already_satisfied():
    sim = Simulator()
    log = Binlog(sim, server_id=1)
    log.append("stmt", "app", 0.0)
    woke = []

    def dumper(sim, log):
        yield log.wait_for(0)
        woke.append(sim.now)

    sim.process(dumper(sim, log))
    sim.run()
    assert woke == [0.0]


# -- a run (the dataset install) reads as per-commit appends -----------------
_payloads = st.one_of(
    st.text(min_size=1, max_size=12),                      # statement format
    st.lists(st.builds(RowOp, st.just("delete"), st.sampled_from(["a.t",
                                                                  "a.u"]),
                       st.integers(0, 9)),
             min_size=1, max_size=3).map(tuple))           # row format
_commits = st.lists(st.tuples(_payloads, st.sampled_from(["app", "main"])),
                    min_size=2, max_size=6)
_steps = st.lists(st.one_of(
    st.tuples(st.just("append"), _commits.map(lambda c: c[:1])),
    st.tuples(st.just("run"), _commits),
    st.tuples(st.just("advance"), st.floats(0.1, 5.0)),
    st.tuples(st.just("read"), st.none()),
    st.tuples(st.just("wait"), st.none()),
), max_size=12)


@given(steps=_steps, data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_run_reads_exactly_as_its_commits_appended_one_by_one(steps,
                                                                data):
    sim = Simulator()
    lazy, eager = Binlog(sim, server_id=3), Binlog(sim, server_id=3)
    woke = {lazy: [], eager: []}

    def park(log, position):
        yield log.wait_for(position)
        woke[log].append((position, sim.now))

    for index, (kind, arg) in enumerate(steps):
        clock = 100.0 + index
        if kind == "advance":
            sim.run(until=sim.now + arg)
        elif kind in ("append", "run"):
            if kind == "run":
                lazy.append_run(arg, clock)
            else:
                lazy.append(*_appended(arg[0], clock))
            for commit in arg:
                eager.append(*_appended(commit, clock))
        elif kind == "wait":
            position = data.draw(st.integers(0, lazy.head_position + 1))
            for log in (lazy, eager):
                sim.process(park(log, position))
        else:
            position = data.draw(st.integers(0, lazy.head_position + 1))
            limit = data.draw(st.one_of(st.none(), st.integers(0, 4)))
            assert lazy.read_from(position, limit) \
                == eager.read_from(position, limit)
        assert lazy.head_position == eager.head_position
    sim.run(until=sim.now + 1.0)
    assert woke[lazy] == woke[eager]
    assert lazy.events == eager.events
    assert [event.size_bytes for event in lazy.events] \
        == [event.size_bytes for event in eager.events]


def _appended(commit, clock):
    """``append``'s arguments for one committed ``(payload, database)``."""
    payload, database = commit
    statement, row_ops = event_fields(payload)
    return statement, database, clock, row_ops


def test_a_run_is_built_once_and_only_when_read_inside():
    sim = Simulator()
    log = Binlog(sim, server_id=1)
    log.append("CREATE TABLE t (a INT)", "app", 1.0)
    log.append_run([(f"INSERT INTO t VALUES ({i})", "app")
                    for i in range(5)], 2.0)
    tail = log.append("UPDATE t SET a = 0", "app", 3.0)
    assert (log.head_position, tail.position) == (7, 7)
    # At or after the install head nothing is built.
    assert log.read_from(6) == [tail] and log.read_from(7) == []
    assert log._runs
    first = log.read_from(3)
    assert [event.position for event in first] == [4, 5, 6, 7]
    assert not log._runs
    assert all(a is b for a, b in zip(first, log.read_from(3)))
    assert {event.commit_wallclock for event in first[:-1]} == {2.0}
