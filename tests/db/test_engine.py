"""Storage-engine execution tests."""

import sqlite3

import pytest

from repro.db import (DatabaseError, DuplicateKeyError, SchemaError,
                      StorageEngine, TableNotFoundError, TransactionError,
                      standard_functions)


@pytest.fixture
def engine():
    eng = StorageEngine(functions=standard_functions(lambda: 1000.123456),
                        default_database="app")
    eng.execute("CREATE TABLE users (id INTEGER PRIMARY KEY AUTO_INCREMENT, "
                "name VARCHAR(32) NOT NULL, karma INTEGER DEFAULT 0)")
    eng.execute("INSERT INTO users (name, karma) VALUES "
                "('alice', 5), ('bob', 3), ('carol', 9)")
    return eng


def rows(engine, sql, params=None):
    return engine.execute(sql, params=params).result.rows


# ----------------------------------------------------------------- SELECT
def test_select_all(engine):
    got = rows(engine, "SELECT * FROM users")
    assert got == [(1, "alice", 5), (2, "bob", 3), (3, "carol", 9)]


def test_select_columns_and_labels(engine):
    result = engine.execute("SELECT name, karma AS k FROM users "
                            "WHERE id = 1").result
    assert result.columns == ["name", "k"]
    assert result.rows == [("alice", 5)]


def test_select_pk_lookup_profile(engine):
    out = engine.execute("SELECT * FROM users WHERE id = 2")
    assert out.profile.used_index
    assert out.profile.rows_examined == 1


def test_select_missing_pk(engine):
    assert rows(engine, "SELECT * FROM users WHERE id = 99") == []


def test_select_full_scan_profile(engine):
    out = engine.execute("SELECT * FROM users WHERE karma > 4")
    assert not out.profile.used_index
    assert out.profile.rows_examined == 3
    assert out.profile.rows_returned == 2


def test_select_secondary_index_used(engine):
    engine.execute("CREATE INDEX idx_karma ON users (karma)")
    out = engine.execute("SELECT * FROM users WHERE karma = 3")
    assert out.profile.used_index
    assert out.profile.rows_examined == 1
    assert out.result.rows == [(2, "bob", 3)]


def test_select_index_range_scan(engine):
    engine.execute("CREATE INDEX idx_karma ON users (karma)")
    out = engine.execute("SELECT name FROM users WHERE karma BETWEEN 4 AND 10")
    assert out.profile.used_index
    assert sorted(out.result.rows) == [("alice",), ("carol",)]


def test_select_order_by(engine):
    got = rows(engine, "SELECT name FROM users ORDER BY karma DESC")
    assert got == [("carol",), ("alice",), ("bob",)]


def test_select_order_by_multi_key(engine):
    engine.execute("INSERT INTO users (name, karma) VALUES ('dave', 5)")
    got = rows(engine, "SELECT name FROM users ORDER BY karma DESC, name")
    assert got == [("carol",), ("alice",), ("dave",), ("bob",)]


def test_select_limit_offset(engine):
    got = rows(engine, "SELECT id FROM users ORDER BY id LIMIT 2 OFFSET 1")
    assert got == [(2,), (3,)]


def test_select_distinct(engine):
    engine.execute("INSERT INTO users (name, karma) VALUES ('dup', 5)")
    got = rows(engine, "SELECT DISTINCT karma FROM users ORDER BY karma")
    assert got == [(3,), (5,), (9,)]


def test_select_aggregates(engine):
    result = engine.execute(
        "SELECT COUNT(*), MAX(karma), MIN(karma), AVG(karma), SUM(karma) "
        "FROM users").result
    assert result.rows == [(3, 9, 3, 17 / 3, 17)]


def test_aggregate_over_empty_set(engine):
    result = engine.execute("SELECT COUNT(*), MAX(karma) FROM users "
                            "WHERE id > 100").result
    assert result.rows == [(0, None)]


def test_count_distinct(engine):
    engine.execute("INSERT INTO users (name, karma) VALUES ('dup', 5)")
    assert engine.execute("SELECT COUNT(DISTINCT karma) FROM users"
                          ).result.scalar() == 3


def test_mixed_aggregate_and_column_uses_mysql_semantics(engine):
    # Pre-ONLY_FULL_GROUP_BY MySQL: bare column evaluates on an
    # arbitrary row of the implicit single group.
    result = engine.execute("SELECT name, COUNT(*) FROM users").result
    assert result.rows[0][1] == 3
    assert result.rows[0][0] in ("alice", "bob", "carol")


def test_select_with_params(engine):
    got = rows(engine, "SELECT name FROM users WHERE karma > ?", params=(4,))
    assert sorted(got) == [("alice",), ("carol",)]


def test_tableless_select(engine):
    assert rows(engine, "SELECT 2 + 3") == [(5,)]
    assert engine.execute("SELECT USEC_NOW()").result.scalar() == \
        pytest.approx(1000.123456)


@pytest.mark.parametrize("sql", ["SELECT 1 WHERE 1 = 0",
                                 "SELECT COUNT(*) WHERE 1 = 0",
                                 "SELECT COUNT(*)",
                                 "SELECT 1 WHERE 1 = 1",
                                 "SELECT COUNT(*), 7 WHERE 2 > 1"])
def test_tableless_select_agrees_with_sqlite(engine, sql):
    # WHERE and grouping apply to the one empty row a FROM-less SELECT
    # has: a false WHERE leaves no row, and COUNT(*) counts 0 or 1.
    reference = sqlite3.connect(":memory:")
    try:
        expected = reference.execute(sql).fetchall()
    finally:
        reference.close()
    assert rows(engine, sql) == expected


@pytest.mark.parametrize("sql", [
    # x [NOT] IN (..., NULL) without a match is NULL, not FALSE / TRUE.
    "SELECT 2 IN (1, NULL)", "SELECT 2 NOT IN (1, NULL)",
    "SELECT 1 IN (1, NULL)", "SELECT 1 NOT IN (NULL, 1)",
    "SELECT NULL IN (1, 2)", "SELECT 3 NOT IN (1, 2)",
    # [NOT] BETWEEN with a NULL bound is a three-valued AND.
    "SELECT 5 NOT BETWEEN NULL AND 3", "SELECT 5 BETWEEN NULL AND 3",
    "SELECT 5 BETWEEN NULL AND 7", "SELECT 5 NOT BETWEEN NULL AND 7",
    "SELECT 5 NOT BETWEEN 7 AND NULL", "SELECT 5 BETWEEN 1 AND NULL",
    "SELECT NULL BETWEEN 1 AND 2", "SELECT 5 NOT BETWEEN 1 AND 9",
    # % truncates toward zero: the remainder has the dividend's sign.
    "SELECT -7 % 3", "SELECT 7 % -3", "SELECT -7 % -3", "SELECT 7 % 3",
    "SELECT 7 % 0",
])
def test_null_and_sign_rules_agree_with_sqlite(engine, sql):
    reference = sqlite3.connect(":memory:")
    try:
        expected = reference.execute(sql).fetchall()
    finally:
        reference.close()
    assert rows(engine, sql) == expected  # TRUE/FALSE compare as 1/0


@pytest.mark.parametrize("where", ["v NOT IN (5, 7, NULL)",
                                   "v IN (5, NULL)",
                                   "v NOT BETWEEN NULL AND 6",
                                   "v % 4 = -1"])
def test_null_and_sign_rules_filter_rows_like_sqlite(where):
    engine = StorageEngine(default_database="app")
    reference = sqlite3.connect(":memory:")
    try:
        for sql in ("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)",
                    "INSERT INTO t (id, v) VALUES (1, 5), (2, -9), "
                    "(3, NULL), (4, 8), (5, -5)"):
            engine.execute(sql)
            reference.execute(sql)
        sql = f"SELECT id FROM t WHERE {where} ORDER BY id"
        assert rows(engine, sql) == reference.execute(sql).fetchall()
    finally:
        reference.close()


def test_select_unknown_table(engine):
    with pytest.raises(TableNotFoundError):
        engine.execute("SELECT * FROM nope")


# -------------------------------------------------------------------- JOIN
@pytest.fixture
def joined(engine):
    engine.execute("CREATE TABLE events (id INTEGER PRIMARY KEY "
                   "AUTO_INCREMENT, owner INTEGER, title VARCHAR(64))")
    engine.execute("INSERT INTO events (owner, title) VALUES "
                   "(1, 'party'), (2, 'meetup'), (1, 'demo')")
    return engine


def test_join_by_pk_probe(joined):
    out = joined.execute("SELECT e.title, u.name FROM events e "
                         "JOIN users u ON u.id = e.owner ORDER BY e.id")
    assert out.result.rows == [("party", "alice"), ("meetup", "bob"),
                               ("demo", "alice")]
    # pk probe: one right-row examined per left row
    assert out.profile.joined_tables == 1


def test_join_with_where(joined):
    got = rows(joined, "SELECT e.title FROM events e "
               "JOIN users u ON u.id = e.owner WHERE u.name = 'alice' "
               "ORDER BY e.id")
    assert got == [("party",), ("demo",)]


def test_join_star_projection(joined):
    result = joined.execute("SELECT * FROM events e "
                            "JOIN users u ON u.id = e.owner "
                            "WHERE e.id = 1").result
    assert result.columns == ["id", "owner", "title", "id", "name", "karma"]
    assert result.rows == [(1, 1, "party", 1, "alice", 5)]


def test_join_without_index_falls_back_to_scan(joined):
    # join on a non-indexed right column
    got = rows(joined, "SELECT u.name FROM users u "
               "JOIN events e ON e.title = 'party' WHERE u.id = 1")
    assert got == [("alice",)]


# --------------------------------------------------------------------- DML
def test_insert_lastrowid(engine):
    out = engine.execute("INSERT INTO users (name) VALUES ('dave')")
    assert out.result.lastrowid == 4
    assert out.result.rowcount == 1


def test_insert_all_columns_positional(engine):
    engine.execute("INSERT INTO users VALUES (50, 'eve', 1)")
    assert engine.execute("SELECT name FROM users WHERE id = 50"
                          ).result.scalar() == "eve"


def test_insert_wrong_arity(engine):
    with pytest.raises(SchemaError):
        engine.execute("INSERT INTO users (name) VALUES ('x', 2)")


def test_insert_duplicate_rolls_back_whole_statement(engine):
    with pytest.raises(DuplicateKeyError):
        engine.execute("INSERT INTO users (id, name) VALUES "
                       "(90, 'x'), (1, 'dup')")
    # first row of the failed statement must not remain
    assert rows(engine, "SELECT * FROM users WHERE id = 90") == []


def test_update_with_expression(engine):
    out = engine.execute("UPDATE users SET karma = karma * 2 WHERE karma > 4")
    assert out.result.rowcount == 2
    assert engine.execute("SELECT karma FROM users WHERE name = 'carol'"
                          ).result.scalar() == 18


def test_update_no_match(engine):
    out = engine.execute("UPDATE users SET karma = 0 WHERE id = 12345")
    assert out.result.rowcount == 0
    assert out.committed == []  # nothing binlogged


def test_delete(engine):
    out = engine.execute("DELETE FROM users WHERE karma < 4")
    assert out.result.rowcount == 1
    assert engine.execute("SELECT COUNT(*) FROM users").result.scalar() == 2


def test_delete_all(engine):
    engine.execute("DELETE FROM users")
    assert engine.execute("SELECT COUNT(*) FROM users").result.scalar() == 0


# --------------------------------------------------------------------- DDL
def test_create_database_and_qualified_tables(engine):
    engine.execute("CREATE DATABASE heartbeats")
    engine.execute("CREATE TABLE heartbeats.heartbeat "
                   "(id INTEGER PRIMARY KEY, ts DOUBLE)")
    engine.execute("INSERT INTO heartbeats.heartbeat VALUES (1, 0.5)")
    assert engine.execute("SELECT COUNT(*) FROM heartbeats.heartbeat"
                          ).result.scalar() == 1


def test_create_existing_database(engine):
    engine.execute("CREATE DATABASE d2")
    with pytest.raises(SchemaError):
        engine.execute("CREATE DATABASE d2")
    engine.execute("CREATE DATABASE IF NOT EXISTS d2")  # tolerated


def test_use_switches_default_database(engine):
    engine.execute("CREATE DATABASE d2")
    engine.execute("USE d2")
    engine.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
    assert "d2.t" in engine.tables
    with pytest.raises(DatabaseError):
        engine.execute("USE missing_db")


def test_create_table_if_not_exists(engine):
    engine.execute("CREATE TABLE IF NOT EXISTS users (id INTEGER PRIMARY KEY)")
    # original schema survives
    assert engine.table("users").schema.has_column("karma")
    with pytest.raises(SchemaError):
        engine.execute("CREATE TABLE users (id INTEGER PRIMARY KEY)")


def test_drop_table(engine):
    engine.execute("DROP TABLE users")
    assert not engine.has_table("users")
    with pytest.raises(TableNotFoundError):
        engine.execute("DROP TABLE users")
    engine.execute("DROP TABLE IF EXISTS users")  # tolerated


def test_create_table_in_unknown_database(engine):
    with pytest.raises(DatabaseError):
        engine.execute("CREATE TABLE nodb.t (a INTEGER PRIMARY KEY)")


# ------------------------------------------------------------ transactions
def test_commit_publishes_statements(engine):
    log = []
    engine.commit_listener = log.extend
    engine.execute("BEGIN")
    engine.execute("INSERT INTO users (name) VALUES ('x')")
    engine.execute("UPDATE users SET karma = 1 WHERE name = 'x'")
    assert log == []  # nothing until commit
    out = engine.execute("COMMIT")
    assert len(out.committed) == 2
    assert log == out.committed
    assert all(database == "app" for _text, database in log)


def test_committed_text_is_rendered_on_read(engine, monkeypatch):
    # Without a commit listener nothing renders until a result's
    # ``committed`` is read, and then it reads as the statements ran:
    # a params list the caller reuses afterwards does not reach it.
    from repro.db import engine as engine_module
    rendered = []
    render = engine_module.render_statement
    monkeypatch.setattr(engine_module, "render_statement",
                        lambda *args: rendered.append(args) or render(*args))
    params = ["x", 7]
    engine.execute("BEGIN")
    assert engine.execute("INSERT INTO users (name, karma) VALUES (?, ?)",
                          params).committed == []
    params[:] = ["y", 8]
    engine.execute("UPDATE users SET karma = karma + 1 WHERE name = 'x'")
    engine.execute("UPDATE users SET karma = USEC_NOW() WHERE name = 'nobody'")
    out = engine.execute("COMMIT")
    assert rendered == []
    assert out.committed == [
        ("INSERT INTO users (name, karma) VALUES ('x', 7)", "app"),
        ("UPDATE users SET karma = (karma + 1) WHERE (name = 'x')", "app")]
    assert engine.execute("INSERT INTO users (name, karma) VALUES (?, ?)",
                          ("o'k", 15)).committed \
        == [("INSERT INTO users (name, karma) VALUES ('o''k', 15)", "app")]
    assert engine.execute("DELETE FROM users WHERE karma IN (8, 9) AND "
                          "name LIKE 'x%'").committed \
        == [("DELETE FROM users WHERE ((karma IN (8, 9)) AND "
             "(name LIKE 'x%'))", "app")]
    assert engine.execute("CREATE INDEX idx_karma ON users (karma)"
                          ).committed \
        == [("CREATE INDEX idx_karma ON users (karma)", "app")]
    assert engine.execute("SELECT * FROM users").committed == []
    assert len(rendered) == 5


def test_rollback_restores_state(engine):
    before = engine.checksum()
    engine.execute("BEGIN")
    engine.execute("INSERT INTO users (name) VALUES ('x')")
    engine.execute("DELETE FROM users WHERE id = 1")
    engine.execute("UPDATE users SET karma = 99 WHERE id = 2")
    engine.execute("ROLLBACK")
    assert engine.checksum() == before


def test_autocommit_publishes_immediately(engine):
    log = []
    engine.commit_listener = log.extend
    engine.execute("INSERT INTO users (name) VALUES ('x')")
    assert len(log) == 1


def test_selects_never_binlogged(engine):
    log = []
    engine.commit_listener = log.extend
    engine.execute("SELECT * FROM users")
    assert log == []


def test_nested_begin_rejected(engine):
    engine.execute("BEGIN")
    with pytest.raises(TransactionError):
        engine.execute("BEGIN")


def test_commit_without_begin_rejected(engine):
    with pytest.raises(TransactionError):
        engine.execute("COMMIT")
    with pytest.raises(TransactionError):
        engine.execute("ROLLBACK")


def test_ddl_inside_transaction_rejected(engine):
    engine.execute("BEGIN")
    with pytest.raises(TransactionError):
        engine.execute("CREATE TABLE t2 (a INTEGER PRIMARY KEY)")


def test_rollback_of_pk_move(engine):
    before = engine.checksum()
    engine.execute("BEGIN")
    engine.execute("UPDATE users SET id = 77 WHERE id = 1")
    engine.execute("ROLLBACK")
    assert engine.checksum() == before


# ---------------------------------------------------------------- snapshot
def test_snapshot_restore_round_trip(engine):
    snapshot = engine.snapshot()
    engine.execute("DELETE FROM users")
    engine.execute("DROP TABLE users")
    other = StorageEngine(default_database="app")
    other.restore(snapshot)
    assert other.execute("SELECT COUNT(*) FROM users").result.scalar() == 3
    assert other.checksum() != engine.checksum()


def test_snapshot_databases_is_sorted_list(engine):
    # The snapshot is the slave initial-sync payload: it must
    # serialize identically across runs and hash seeds, so the
    # database names travel as a sorted list, never a raw set.
    engine.execute("CREATE DATABASE analytics")
    engine.execute("CREATE DATABASE audit")
    snapshot = engine.snapshot()
    assert isinstance(snapshot["databases"], list)
    assert snapshot["databases"] == sorted(snapshot["databases"])
    other = StorageEngine(default_database="app")
    other.restore(snapshot)
    assert other.snapshot()["databases"] == snapshot["databases"]


def test_snapshot_is_deep(engine):
    snapshot = engine.snapshot()
    engine.execute("UPDATE users SET karma = 1000 WHERE id = 1")
    other = StorageEngine(default_database="app")
    other.restore(snapshot)
    assert other.execute("SELECT karma FROM users WHERE id = 1"
                         ).result.scalar() == 5
