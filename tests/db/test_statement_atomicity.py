"""A failed statement leaves no trace, whatever it failed with.

Evaluation failures are not ``DatabaseError``s where they are raised
(an unknown column is a ``ValueError``, ``1 < 'a'`` a ``TypeError``),
so the engine used to skip its rollback for them: the implicit
transaction stayed open and swallowed the next statement's commit.
"""

import pytest

from repro.db import DatabaseError, ExpressionError, StorageEngine
from repro.sql import EvaluationError


@pytest.fixture
def committed():
    return []


@pytest.fixture
def engine(committed):
    eng = StorageEngine(default_database="app",
                        commit_listener=committed.extend)
    eng.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, "
                "s VARCHAR(8))")
    eng.execute("INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), "
                "(3, 30, 'c')")
    del committed[:]
    return eng


FAILING = [
    "UPDATE t SET v = nosuch WHERE id = 1",          # EvaluationError
    "UPDATE t SET v = v + 1 WHERE s < 5",            # TypeError
    "DELETE FROM t WHERE NOSUCH(id) = 1",
    "INSERT INTO t VALUES (4, 40, 'd'), (5, nosuch, 'e')",
    "INSERT INTO t VALUES (?, 1, 'x')",              # unbound parameter
]


@pytest.mark.parametrize("sql", FAILING)
def test_failed_autocommit_statement_closes_its_transaction(engine, sql):
    before = engine.checksum()
    with pytest.raises(Exception):
        engine.execute(sql)
    assert not engine.in_transaction
    assert engine.checksum() == before


@pytest.mark.parametrize("sql", FAILING)
def test_statement_after_a_failure_reaches_the_binlog(engine, committed,
                                                      sql):
    with pytest.raises(Exception):
        engine.execute(sql)
    outcome = engine.execute("INSERT INTO t VALUES (9, 90, 'z')")
    assert outcome.committed == [("INSERT INTO t VALUES (9, 90, 'z')",
                                  "app")]
    assert committed == outcome.committed


def test_failure_inside_begin_undoes_only_that_statement(engine, committed):
    engine.execute("BEGIN")
    engine.execute("UPDATE t SET v = 11 WHERE id = 1")
    # Rows 1 and 2 are updated before row 3 fails ('c' + 1).
    with pytest.raises(Exception):
        engine.execute("UPDATE t SET v = s + 1 WHERE s > 'b' OR v < 25")
    assert engine.in_transaction
    assert engine.execute("SELECT id, v FROM t ORDER BY id").result.rows \
        == [(1, 11), (2, 20), (3, 30)]
    engine.execute("COMMIT")
    assert [text for text, _db in committed] \
        == ["UPDATE t SET v = 11 WHERE (id = 1)"]
    # ROLLBACK after a failed statement restores the pre-BEGIN state.
    engine.execute("BEGIN")
    engine.execute("DELETE FROM t WHERE id = 2")
    with pytest.raises(Exception):
        engine.execute("UPDATE t SET v = nosuch")
    engine.execute("ROLLBACK")
    assert engine.execute("SELECT COUNT(*) FROM t").result.scalar() == 3


def test_evaluation_failures_are_database_errors(engine):
    with pytest.raises(ExpressionError, match="unknown column 'nosuch'") \
            as caught:
        engine.execute("SELECT nosuch FROM t")
    assert isinstance(caught.value, DatabaseError)
    assert isinstance(caught.value, EvaluationError)
    with pytest.raises(ExpressionError, match="not supported between"):
        engine.execute("SELECT * FROM t WHERE s < 5")
