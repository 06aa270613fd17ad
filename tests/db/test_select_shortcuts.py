"""The SELECT executor's shortcuts, against stdlib ``sqlite3``.

The executor skips work the answer does not need: a range scan on the
index of the ORDER BY column arrives sorted, a page stops at its LIMIT,
a probe that enforces the whole WHERE (or a join's lone ``=``) is not
re-checked, and ``COUNT(*)`` over such a probe is the probe's size.
Each shape is compared with sqlite (rows, in order under ORDER BY,
ties in pk order), and ``rows_examined`` / ``rows_returned``, the cost
model's input, are pinned: a shortcut changes host work, never them.

sqlite's tables are declared without column types where this engine
compares strictly: a column with no type has no affinity, so the text
``'5'`` and the integer ``5`` differ there as they do here.
"""

import sqlite3

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.db import StorageEngine

VALUES = st.one_of(st.none(), st.integers(-6, 6))
TABLES = st.lists(st.tuples(VALUES, VALUES), max_size=24)
BOUNDS = st.one_of(st.none(), st.integers(-7, 7))

SCHEMA = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, w INTEGER)",
    "CREATE TABLE u (id INTEGER PRIMARY KEY, name VARCHAR(8))",
)


def _load(rows):
    """The same tables in this engine (``v`` indexed) and in sqlite."""
    engine = StorageEngine(default_database="app")
    reference = sqlite3.connect(":memory:")
    for sql in SCHEMA:
        engine.execute(sql)
        reference.execute(sql)
    engine.execute("CREATE INDEX idx_v ON t (v)")
    reference.execute("CREATE INDEX idx_v ON t (v)")
    for pk, (v, w) in enumerate(rows, 1):
        for db in (engine, reference):
            db.execute("INSERT INTO t (id, v, w) VALUES (?, ?, ?)",
                       (pk, v, w))
    for pk in range(-6, 7):
        for db in (engine, reference):
            db.execute("INSERT INTO u (id, name) VALUES (?, ?)",
                       (pk, f"n{pk}"))
    return engine, reference


def _agree(engine, reference, sql, params=(), reference_sql=None):
    out = engine.execute(sql, params)
    expected = reference.execute(reference_sql or sql, params).fetchall()
    assert out.result.rows == expected, sql
    return out.profile


def _in_range(rows, low, high):
    return sum(1 for v, _w in rows
               if v is not None and low <= v <= high)


@settings(max_examples=150, deadline=None)
@given(rows=TABLES, low=BOUNDS, high=BOUNDS, limit=st.integers(0, 6),
       offset=st.integers(0, 4), descending=st.booleans(),
       distinct=st.booleans())
def test_ordered_range_pages_agree_with_sqlite(rows, low, high, limit,
                                               offset, descending,
                                               distinct):
    engine, reference = _load(rows)
    try:
        direction = "DESC" if descending else "ASC"
        select = "SELECT DISTINCT v" if distinct else "SELECT id, v"
        page = f"LIMIT {limit} OFFSET {offset}"
        for where, params, bounds in (
                ("v BETWEEN ? AND ?", (low, high), (low, high)),
                ("v < ?", (high,), (-100, high is not None and high - 1)),
                ("v >= ?", (low,), (low, 100))):
            sql = f"{select} FROM t WHERE {where} ORDER BY v {direction}"
            # sqlite's tie order is unspecified; this engine's is pk
            # order, in both directions.
            tie = "" if distinct else ", id ASC"
            profile = _agree(engine, reference, f"{sql} {page}", params,
                             f"{sql}{tie} {page}")
            if None in params:
                assert profile.rows_examined == 0
                continue
            assert profile.rows_examined == _in_range(rows, *bounds)
            assert profile.used_index
    finally:
        reference.close()


@settings(max_examples=150, deadline=None)
@given(rows=TABLES, low=BOUNDS, floor=BOUNDS, limit=st.integers(0, 6),
       descending=st.booleans())
# The page's first candidate fails ``w > ?``: the walk must go past it.
@example(rows=[(1, 0), (2, 5)], low=0, floor=1, limit=1, descending=False)
@example(rows=[(2, 0), (1, 5)], low=0, floor=1, limit=1, descending=True)
def test_a_page_with_a_residual_where_agrees_with_sqlite(rows, low, floor,
                                                          limit,
                                                          descending):
    # The range drives the walk; ``w > ?`` is checked row by row until
    # the page is full.
    engine, reference = _load(rows)
    try:
        direction = "DESC" if descending else "ASC"
        sql = (f"SELECT id, w FROM t WHERE v >= ? AND w > ? "
               f"ORDER BY v {direction}")
        profile = _agree(engine, reference, f"{sql} LIMIT {limit}",
                         (low, floor), f"{sql}, id ASC LIMIT {limit}")
        assert profile.rows_examined == (
            0 if low is None else _in_range(rows, low, 100))
    finally:
        reference.close()


@settings(max_examples=150, deadline=None)
@given(rows=TABLES, low=BOUNDS, high=BOUNDS)
def test_count_over_a_range_agrees_with_sqlite(rows, low, high):
    engine, reference = _load(rows)
    try:
        profile = _agree(engine, reference,
                         "SELECT COUNT(*) FROM t WHERE v BETWEEN ? AND ?",
                         (low, high))
        assert profile.rows_returned == 1
        assert profile.rows_examined == (
            0 if None in (low, high) else _in_range(rows, low, high))
    finally:
        reference.close()


@settings(max_examples=150, deadline=None)
@given(rows=TABLES, value=BOUNDS)
def test_equality_probes_agree_with_sqlite(rows, value):
    engine, reference = _load(rows)
    try:
        # A NULL probe finds the NULL-keyed rows, which ``v = NULL``
        # must still reject.
        _agree(engine, reference, "SELECT id FROM t WHERE v = ?", (value,))
        _agree(engine, reference,
               "SELECT COUNT(*) FROM t WHERE v = ?", (value,))
        _agree(engine, reference, "SELECT v FROM t WHERE id = ?", (value,))
    finally:
        reference.close()


@settings(max_examples=150, deadline=None)
@given(rows=TABLES, limit=st.integers(0, 6))
def test_probe_joins_with_null_keys_agree_with_sqlite(rows, limit):
    engine, reference = _load(rows)
    try:
        sql = "SELECT t.id, u.name FROM t JOIN u ON u.id = t.w"
        _agree(engine, reference, f"{sql} ORDER BY t.id")
        _agree(engine, reference,
               f"{sql} WHERE t.v >= ? ORDER BY t.v LIMIT {limit}", (0,),
               f"{sql} WHERE t.v >= ? ORDER BY t.v, t.id LIMIT {limit}")
        # An index probe with a NULL key finds the NULL-keyed rows, and
        # the lone ``=`` must still reject every one of them.
        _agree(engine, reference,
               "SELECT t.id, x.id FROM t JOIN t AS x ON x.v = t.w "
               "ORDER BY t.id, x.id")
    finally:
        reference.close()


def test_a_text_key_probed_with_a_number_is_still_filtered():
    engine = StorageEngine(default_database="app")
    reference = sqlite3.connect(":memory:")
    try:
        engine.execute("CREATE TABLE s (id VARCHAR(4) PRIMARY KEY, v "
                       "INTEGER)")
        reference.execute("CREATE TABLE s (id PRIMARY KEY, v)")
        for db in (engine, reference):
            db.execute("INSERT INTO s (id, v) VALUES ('5', 1), ('6', 2)")
        # ``5`` coerces to the key '5' and finds its row, but the WHERE
        # compares the stored text with the number: no row.
        profile = _agree(engine, reference, "SELECT v FROM s WHERE id = ?",
                         (5,))
        assert (profile.rows_examined, profile.rows_returned) == (1, 0)
        profile = _agree(engine, reference, "SELECT v FROM s WHERE id = ?",
                         ("5",))
        assert (profile.rows_examined, profile.rows_returned) == (1, 1)
    finally:
        reference.close()


# ---------------------------------------------------------- pinned costs
PINNED = [(-2, 0), (-1, 1), (None, 2), (0, None), (1, 3), (1, None),
          (2, 0), (None, 9), (3, 1), (-1, 2)]


@pytest.mark.parametrize("sql, params, rows, examined, returned", [
    # Range on the ORDER BY column: every candidate counts, 2 come back.
    ("SELECT id FROM t WHERE v BETWEEN ? AND ? ORDER BY v LIMIT 2",
     (-1, 1), [(2,), (10,)], 5, 2),
    ("SELECT id FROM t WHERE v BETWEEN ? AND ? ORDER BY v DESC LIMIT 3 "
     "OFFSET 1", (-1, 1), [(6,), (4,), (2,)], 5, 3),
    ("SELECT id FROM t WHERE v < ? ORDER BY v", (1,),
     [(1,), (2,), (10,), (4,)], 4, 4),
    ("SELECT DISTINCT v FROM t WHERE v >= ? ORDER BY v LIMIT 3", (0,),
     [(0,), (1,), (2,)], 5, 3),
    # A NULL bound holds for no row: nothing is examined.
    ("SELECT id FROM t WHERE v < ? ORDER BY v LIMIT 2", (None,), [], 0, 0),
    # COUNT(*) over a range, an equality probe and a pk probe.
    ("SELECT COUNT(*) FROM t WHERE v BETWEEN ? AND ?", (-1, 1), [(5,)],
     5, 1),
    ("SELECT COUNT(*) FROM t WHERE v = ?", (1,), [(2,)], 2, 1),
    ("SELECT COUNT(*) FROM t WHERE id = ?", (42,), [(0,)], 1, 1),
    # Equality probes: a NULL value examines the NULL rows, returns none.
    ("SELECT id FROM t WHERE v = ?", (None,), [], 2, 0),
    ("SELECT id FROM t WHERE v = ? LIMIT 1", (1,), [(5,)], 2, 1),
    # A full scan ordered by the pk, stopped at its page.
    ("SELECT id FROM t ORDER BY id DESC LIMIT 2", (), [(10,), (9,)], 10, 2),
    # A pk join: a NULL key joins nothing; each probe examines its row.
    ("SELECT t.id, u.name FROM t JOIN u ON u.id = t.w WHERE t.v = ?",
     (1,), [(5, "c")], 3, 1),
])
def test_shortcut_costs_are_pinned(sql, params, rows, examined, returned):
    engine = StorageEngine(default_database="app")
    for statement in SCHEMA:
        engine.execute(statement)
    engine.execute("CREATE INDEX idx_v ON t (v)")
    for pk, (v, w) in enumerate(PINNED, 1):
        engine.execute("INSERT INTO t (id, v, w) VALUES (?, ?, ?)",
                       (pk, v, w))
    engine.execute("INSERT INTO u (id, name) VALUES (3, 'c'), (9, 'i')")
    out = engine.execute(sql, params)
    assert out.result.rows == rows
    assert (out.profile.rows_examined, out.profile.rows_returned) \
        == (examined, returned)

