"""Projection corners: per-table star, labels, joins with aliases."""

import pytest

from repro.db import StorageEngine, standard_functions


@pytest.fixture
def engine():
    eng = StorageEngine(functions=standard_functions(lambda: 0.0),
                        default_database="app")
    eng.execute("CREATE TABLE users (id INTEGER PRIMARY KEY, "
                "name VARCHAR(16))")
    eng.execute("CREATE TABLE events (id INTEGER PRIMARY KEY, "
                "owner INTEGER, title VARCHAR(32))")
    eng.execute("INSERT INTO users VALUES (1, 'alice'), (2, 'bob')")
    eng.execute("INSERT INTO events VALUES (10, 1, 'party'), "
                "(11, 2, 'demo')")
    return eng


def test_per_table_star_in_join(engine):
    result = engine.execute(
        "SELECT e.*, u.name FROM events e "
        "JOIN users u ON u.id = e.owner ORDER BY e.id").result
    assert result.columns == ["id", "owner", "title", "name"]
    assert result.rows[0] == (10, 1, "party", "alice")


def test_star_for_one_side_only(engine):
    result = engine.execute(
        "SELECT u.* FROM events e JOIN users u ON u.id = e.owner "
        "WHERE e.id = 11").result
    assert result.columns == ["id", "name"]
    assert result.rows == [(2, "bob")]


def test_expression_labels(engine):
    result = engine.execute("SELECT id + 1, UPPER(name) FROM users "
                            "WHERE id = 1").result
    assert result.columns == ["(id + 1)", "UPPER(name)".lower()]


def test_alias_labels_win(engine):
    result = engine.execute("SELECT id + 1 AS next_id FROM users "
                            "WHERE id = 1").result
    assert result.columns == ["next_id"]


def test_self_join_with_distinct_aliases(engine):
    result = engine.execute(
        "SELECT a.name, b.name FROM users a "
        "JOIN users b ON b.id = a.id WHERE a.id = 1").result
    assert result.rows == [("alice", "alice")]


def test_join_chain_three_tables(engine):
    engine.execute("CREATE TABLE rsvp (id INTEGER PRIMARY KEY, "
                   "event_id INTEGER, user_id INTEGER)")
    engine.execute("INSERT INTO rsvp VALUES (1, 10, 2)")
    result = engine.execute(
        "SELECT u.name, e.title FROM rsvp r "
        "JOIN events e ON e.id = r.event_id "
        "JOIN users u ON u.id = r.user_id").result
    assert result.rows == [("bob", "party")]


def test_qualified_columns_resolve_in_single_table(engine):
    result = engine.execute(
        "SELECT users.name FROM users WHERE users.id = 2").result
    assert result.rows == [("bob",)]


def test_table_alias_changes_namespace(engine):
    result = engine.execute(
        "SELECT u.name FROM users u WHERE u.id = 1").result
    assert result.rows == [("alice",)]
    from repro.sql import EvaluationError
    with pytest.raises(EvaluationError):
        engine.execute("SELECT users.name FROM users u WHERE u.id = 1")


def test_where_on_the_joined_table_does_not_probe_the_base_table(engine):
    # ``u.id = 2`` names the *joined* table; probing the base table's
    # own ``id`` with it used to look for event 2 and find nothing.
    outcome = engine.execute(
        "SELECT e.id, u.name FROM events e JOIN users u ON u.id = e.owner "
        "WHERE u.id = 2")
    assert outcome.result.rows == [(11, "bob")]
    assert not outcome.profile.used_index
    assert engine.execute("SELECT e.id FROM events e JOIN users u "
                          "ON u.id = e.owner WHERE e.id = 10 AND u.id = 1"
                          ).profile.used_index
