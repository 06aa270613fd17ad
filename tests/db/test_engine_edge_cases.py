"""Storage-engine edge cases beyond the core behaviours."""

import pytest

from repro.db import StorageEngine, standard_functions


@pytest.fixture
def engine():
    eng = StorageEngine(functions=standard_functions(lambda: 0.0),
                        default_database="app")
    eng.execute("CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT, "
                "name VARCHAR(16), score DOUBLE)")
    eng.execute("INSERT INTO t (name, score) VALUES "
                "('a', 1.0), ('b', NULL), ('c', 3.0), (NULL, 2.0)")
    return eng


def rows(engine, sql):
    return engine.execute(sql).result.rows


def test_order_by_puts_nulls_first(engine):
    # A negative score: NULL sorts below every number, not as zero.
    engine.execute("INSERT INTO t (name, score) VALUES ('d', -4.0)")
    got = rows(engine, "SELECT score FROM t ORDER BY score")
    assert got == [(None,), (-4.0,), (1.0,), (2.0,), (3.0,)]


def test_order_by_desc_puts_nulls_last(engine):
    engine.execute("INSERT INTO t (name, score) VALUES ('d', -4.0)")
    got = rows(engine, "SELECT score FROM t ORDER BY score DESC")
    assert got == [(3.0,), (2.0,), (1.0,), (-4.0,), (None,)]


def test_order_by_mixed_types_is_total(engine):
    # numbers sort before text in our total order; must not raise.
    engine.execute("CREATE TABLE m (id INTEGER PRIMARY KEY, v TEXT)")
    engine.execute("INSERT INTO m VALUES (1, 'x'), (2, 'a')")
    got = rows(engine, "SELECT v FROM m ORDER BY v")
    assert got == [("a",), ("x",)]


def test_where_null_comparison_filters_row(engine):
    # NULL = NULL is NULL -> row filtered (SQL semantics).
    got = rows(engine, "SELECT id FROM t WHERE score = NULL")
    assert got == []


def test_is_null_predicates(engine):
    assert rows(engine, "SELECT id FROM t WHERE score IS NULL") == [(2,)]
    assert len(rows(engine, "SELECT id FROM t WHERE score IS NOT NULL")) \
        == 3


def test_limit_zero(engine):
    assert rows(engine, "SELECT * FROM t LIMIT 0") == []


def test_offset_beyond_rows(engine):
    assert rows(engine, "SELECT * FROM t LIMIT 10 OFFSET 100") == []


def test_distinct_counts_null_once(engine):
    engine.execute("INSERT INTO t (name, score) VALUES ('d', NULL)")
    got = rows(engine, "SELECT DISTINCT score FROM t ORDER BY score")
    assert got == [(None,), (1.0,), (2.0,), (3.0,)]


def test_aggregates_skip_nulls(engine):
    result = engine.execute(
        "SELECT COUNT(score), SUM(score), AVG(score) FROM t").result
    assert result.rows == [(3, 6.0, 2.0)]


def test_count_star_includes_nulls(engine):
    assert engine.execute("SELECT COUNT(*) FROM t").result.scalar() == 4


def test_params_in_dml(engine):
    engine.execute("INSERT INTO t (name, score) VALUES (?, ?)",
                   params=("e", 9.0))
    engine.execute("UPDATE t SET score = ? WHERE name = ?",
                   params=(10.0, "e"))
    assert engine.execute("SELECT score FROM t WHERE name = 'e'"
                          ).result.scalar() == 10.0
    engine.execute("DELETE FROM t WHERE name = ?", params=("e",))
    assert engine.execute("SELECT COUNT(*) FROM t WHERE name = 'e'"
                          ).result.scalar() == 0


def test_like_predicate_in_where(engine):
    got = rows(engine, "SELECT name FROM t WHERE name LIKE '_'")
    assert sorted(got) == [("a",), ("b",), ("c",)]


def test_in_list_in_where(engine):
    got = rows(engine, "SELECT id FROM t WHERE name IN ('a', 'c')")
    assert sorted(got) == [(1,), (3,)]


def test_arithmetic_projection(engine):
    got = rows(engine, "SELECT score * 2 + 1 FROM t WHERE id = 1")
    assert got == [(3.0,)]


def test_function_in_projection(engine):
    got = rows(engine, "SELECT UPPER(name) FROM t WHERE id = 1")
    assert got == [("A",)]


def test_resultset_helpers(engine):
    result = engine.execute("SELECT id, name FROM t WHERE id = 1").result
    assert result.scalar() == 1
    assert result.dicts() == [{"id": 1, "name": "a"}]
    empty = engine.execute("SELECT id FROM t WHERE id = 99").result
    assert empty.scalar() is None


def test_update_where_uses_residual_filter(engine):
    # Index probe on pk + residual predicate that rejects the row.
    out = engine.execute("UPDATE t SET score = 0 "
                         "WHERE id = 1 AND name = 'zzz'")
    assert out.result.rowcount == 0


def test_multi_conjunct_index_selection(engine):
    engine.execute("CREATE INDEX idx_name ON t (name)")
    out = engine.execute("SELECT * FROM t WHERE score IS NOT NULL "
                         "AND name = 'a'")
    assert out.profile.used_index
    assert out.profile.rows_examined == 1


def test_range_probe_reversed_operands(engine):
    engine.execute("CREATE INDEX idx_score ON t (score)")
    out = engine.execute("SELECT id FROM t WHERE 2.0 <= score")
    assert out.profile.used_index
    assert sorted(out.result.rows) == [(3,), (4,)]


def test_statements_executed_counter(engine):
    before = engine.statements_executed
    engine.execute("SELECT 1")
    assert engine.statements_executed == before + 1


def test_database_override_is_temporary(engine):
    engine.execute("CREATE DATABASE other")
    engine.execute("CREATE TABLE other.x (id INTEGER PRIMARY KEY)")
    engine.execute("INSERT INTO x VALUES (5)", database="other")
    assert engine.default_database == "app"
    assert engine.execute("SELECT COUNT(*) FROM other.x"
                          ).result.scalar() == 1


def test_unknown_function_in_where(engine):
    from repro.sql import EvaluationError
    with pytest.raises(EvaluationError):
        engine.execute("SELECT * FROM t WHERE mystery(id) = 1")


def test_insert_explicit_null_into_nullable(engine):
    engine.execute("INSERT INTO t (name, score) VALUES (NULL, NULL)")
    assert engine.execute(
        "SELECT COUNT(*) FROM t WHERE name IS NULL").result.scalar() == 2


def test_join_probing_an_index_returns_rows_in_pk_order(engine):
    # An index bucket is a set: its iteration order is hash order, and
    # a replica's cloned bucket need not repeat it.  Unordered joins
    # must not show it.
    engine.execute("CREATE TABLE c (id INTEGER PRIMARY KEY, t_id INTEGER)")
    engine.execute("CREATE INDEX c_t ON c (t_id)")
    engine.execute("INSERT INTO c VALUES (16, 1), (8, 1), (3, 1), (1, 1), "
                   "(24, 1), (5, 2)")
    twin = StorageEngine(default_database="app")
    twin.restore(engine.snapshot())
    sql = "SELECT c.id FROM t JOIN c ON c.t_id = t.id WHERE t.id = 1"
    for replica in (engine, twin):
        outcome = replica.execute(sql)
        assert outcome.result.rows == [(1,), (3,), (8,), (16,), (24,)]
        assert outcome.profile.used_index
        assert outcome.profile.rows_examined == 6  # 1 + the bucket's 5


def test_ddl_after_a_plan_was_compiled_changes_the_access_path():
    # The plan hangs on the cached statement; the index choice does not.
    from repro.sql.plancache import PlanCache

    def fresh(*ddl):
        eng = StorageEngine(default_database="app", plan_cache=PlanCache())
        eng.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
        eng.execute("INSERT INTO t VALUES (1, 7), (2, 8), (3, 7), (4, 9)")
        for statement in ddl:
            eng.execute(statement)
        return eng

    def run(eng, sql):
        outcome = eng.execute(sql)
        return outcome.result, outcome.profile

    index = "CREATE INDEX t_k ON t (k)"
    queries = ["SELECT id FROM t WHERE k = 7",
               "SELECT id FROM t WHERE k >= 8 ORDER BY id",
               "SELECT a.id, b.id FROM t a JOIN t b ON b.k = a.k "
               "WHERE a.id = 1",
               "UPDATE t SET k = k + 0 WHERE k = 9"]
    engine = fresh()
    for sql in queries:
        assert run(engine, sql) == run(fresh(), sql)
        assert not run(engine, sql)[1].used_index or "JOIN" in sql
    plans = [engine.plan_cache.prepare(sql)[0].plan for sql in queries]
    engine.execute(index)
    for sql, plan in zip(queries, plans):
        assert run(engine, sql) == run(fresh(index), sql)
        assert run(engine, sql)[1].used_index
        assert engine.plan_cache.prepare(sql)[0].plan is plan  # not rebuilt
    # A table re-created with other columns invalidates the plan instead.
    engine.execute("DROP TABLE t")
    engine.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, id INTEGER)")
    engine.execute("INSERT INTO t VALUES (7, 70)")
    assert engine.execute(queries[0]).result.rows == [(70,)]
    assert engine.execute(queries[0]).profile.rows_examined == 1
