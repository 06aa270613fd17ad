"""Property tests for ``Table.clone`` / ``Index.clone``.

Slave sync and the cached dataset image rest on one invariant: a clone
owns its row map and its indexes but *shares the row dicts* with its
source, which is only sound while every mutation replaces a row dict
instead of editing it.  ``copy.deepcopy`` (what ``snapshot`` and
``restore`` used before) is the reference: a clone must equal a deep
copy structurally, and stay equal to it whatever happens to the source
afterwards — and the other way round.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import DatabaseError, StorageEngine
from repro.db.rowevents import apply_row_ops


def fresh_engine():
    engine = StorageEngine(default_database="app")
    engine.execute("CREATE TABLE items (id INTEGER PRIMARY KEY "
                   "AUTO_INCREMENT, grp INTEGER, val INTEGER)")
    engine.execute("CREATE INDEX idx_grp ON items (grp)")
    engine.execute("CREATE INDEX idx_grp_val ON items (grp, val)")
    engine.execute("CREATE TABLE tags (id INTEGER PRIMARY KEY "
                   "AUTO_INCREMENT, name VARCHAR(16))")
    engine.execute("CREATE UNIQUE INDEX ux_name ON tags (name)")
    return engine


def _dml(kind, a, b):
    if kind == 0:
        return f"INSERT INTO items (grp, val) VALUES ({a % 5}, {b})"
    if kind == 1:
        return f"UPDATE items SET val = val + {b % 7} WHERE grp = {a % 5}"
    if kind == 2:
        return f"DELETE FROM items WHERE id = {a % 30 + 1}"
    if kind == 3:
        return f"UPDATE items SET grp = {b % 5} WHERE val < {a % 50}"
    if kind == 4:   # moves the primary key
        return f"UPDATE items SET id = id + {100 + b} WHERE id = {a % 30 + 1}"
    if kind == 5:   # unique index: duplicates are refused
        return f"INSERT INTO tags (name) VALUES ('t{a % 8}')"
    return f"DELETE FROM tags WHERE name = 't{b % 8}'"


dml = st.builds(_dml, st.integers(0, 6), st.integers(0, 100),
                st.integers(0, 100))
#: A statement on its own, or a transaction that commits or rolls back.
steps = st.one_of(
    dml.map(lambda sql: [sql]),
    st.tuples(st.lists(dml, max_size=6),
              st.sampled_from(["COMMIT", "ROLLBACK"])
              ).map(lambda txn: ["BEGIN", *txn[0], txn[1]]))
scripts = st.lists(steps, max_size=12).map(
    lambda groups: [sql for group in groups for sql in group])


def run(engine, script):
    """Execute ``script``; refused statements (duplicate keys) are part
    of the workload."""
    for sql in script:
        try:
            engine.execute(sql)
        except DatabaseError:
            pass


def run_as_row_events(engine, script):
    """Apply ``script`` to ``engine`` the way a row-format slave would:
    a twin executes it and ``engine`` applies the twin's row images."""
    twin = StorageEngine(default_database="app")
    twin.restore(engine.snapshot())
    twin.binlog_format = "row"
    committed = []
    twin.commit_listener = committed.extend
    run(twin, script)
    for payload, _database in committed:
        apply_row_ops(engine, payload)
    assert engine.checksum() == twin.checksum()


def structure(table):
    """Everything a table holds, in comparable form."""
    return {
        "rows": list(table.rows.items()),       # insertion order matters
        "indexes": {name: (index.columns, index.unique,
                           dict(index._buckets), list(index._sorted_keys))
                    for name, index in table.indexes.items()},
        "auto_increment": table._next_auto_increment,
        "checksum": table.checksum_state(),
    }


def structures(engine):
    return {name: structure(table) for name, table in engine.tables.items()}


@given(script=scripts)
@settings(max_examples=150, deadline=None)
def test_clone_equals_deepcopy(script):
    engine = fresh_engine()
    run(engine, script)
    for table in engine.tables.values():
        clone, deep = table.clone(), copy.deepcopy(table)
        assert structure(clone) == structure(deep) == structure(table)
        assert clone.schema is table.schema
        assert clone.rows is not table.rows
        for name, index in table.indexes.items():
            twin = clone.indexes[name]
            assert twin is not index
            assert twin._sorted_keys is not index._sorted_keys
            assert all(twin._buckets[key] is not bucket
                       for key, bucket in index._buckets.items())


@given(before=scripts, after=scripts, mutate_clone=st.booleans(),
       as_row_events=st.booleans())
@settings(max_examples=200, deadline=None)
def test_writes_on_one_side_never_show_on_the_other(
        before, after, mutate_clone, as_row_events):
    source = fresh_engine()
    run(source, before)
    clone = StorageEngine(default_database="app")
    clone.tables = {name: table.clone()
                    for name, table in source.tables.items()}
    reference = structures(copy.deepcopy(source))
    assert structures(clone) == reference
    mutated, untouched = (clone, source) if mutate_clone \
        else (source, clone)
    (run_as_row_events if as_row_events else run)(mutated, after)
    assert structures(untouched) == reference


@given(before=scripts, first=scripts, second=scripts)
@settings(max_examples=100, deadline=None)
def test_one_snapshot_seeds_independent_replicas(before, first, second):
    master = fresh_engine()
    run(master, before)
    snapshot = master.snapshot()
    reference = structures(copy.deepcopy(master))
    one = StorageEngine(default_database="other")
    two = StorageEngine(default_database="other")
    one.restore(snapshot)
    two.restore(snapshot)
    run(master, first)
    run(one, first)
    assert structures(two) == reference
    run(two, second)
    late = StorageEngine()
    late.restore(snapshot)
    assert structures(late) == reference
    assert late.default_database == "app"
    # Replaying the same statements on equal states converges.
    assert one.checksum() == master.checksum()
