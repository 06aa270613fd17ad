"""Parser tests."""

import pytest

from repro.sql import ParseError, parse
from repro.sql.ast import (BeginStatement, BinaryOp, ColumnRef,
                           CommitStatement, CreateDatabaseStatement,
                           CreateIndexStatement, CreateTableStatement,
                           DeleteStatement, DropTableStatement, FunctionCall,
                           InList, InsertStatement, IsNull, LikeOp, Literal,
                           ParamRef, RollbackStatement, SelectStatement,
                           Star, UpdateStatement, UseStatement)


# ---------------------------------------------------------------- SELECT
def test_select_star():
    stmt = parse("SELECT * FROM users")
    assert isinstance(stmt, SelectStatement)
    assert isinstance(stmt.items[0].expression, Star)
    assert stmt.table == "users"
    assert not stmt.is_write


def test_select_columns_and_alias():
    stmt = parse("SELECT id, name AS label FROM users u")
    assert stmt.items[0].expression == ColumnRef("id")
    assert stmt.items[1].alias == "label"
    assert stmt.alias == "u"


def test_select_qualified_column():
    stmt = parse("SELECT u.name FROM users u")
    assert stmt.items[0].expression == ColumnRef("name", table="u")


def test_select_where_comparison():
    stmt = parse("SELECT * FROM t WHERE a >= 10 AND b != 'x'")
    where = stmt.where
    assert isinstance(where, BinaryOp) and where.op == "AND"
    assert where.left == BinaryOp(">=", ColumnRef("a"), Literal(10))
    assert where.right == BinaryOp("!=", ColumnRef("b"), Literal("x"))


def test_diamond_normalized_to_bang_equals():
    stmt = parse("SELECT * FROM t WHERE a <> 1")
    assert stmt.where.op == "!="


def test_select_in_between_like_null():
    stmt = parse("SELECT * FROM t WHERE a IN (1, 2) AND b BETWEEN 3 AND 4 "
                 "AND c LIKE 'x%' AND d IS NOT NULL")
    conjuncts = []

    def flatten(e):
        if isinstance(e, BinaryOp) and e.op == "AND":
            flatten(e.left)
            flatten(e.right)
        else:
            conjuncts.append(e)
    flatten(stmt.where)
    assert isinstance(conjuncts[0], InList)
    assert conjuncts[1].low == Literal(3)
    assert isinstance(conjuncts[2], LikeOp)
    assert conjuncts[3] == IsNull(ColumnRef("d"), negated=True)


def test_select_not_in():
    stmt = parse("SELECT * FROM t WHERE a NOT IN (1)")
    assert stmt.where.negated


def test_select_order_limit_offset():
    stmt = parse("SELECT * FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5")
    assert stmt.order_by[0].descending
    assert not stmt.order_by[1].descending
    assert stmt.limit == 10
    assert stmt.offset == 5


def test_mysql_limit_comma_form():
    stmt = parse("SELECT * FROM t LIMIT 5, 10")
    assert stmt.offset == 5
    assert stmt.limit == 10


def test_select_join():
    stmt = parse("SELECT u.name, e.title FROM users u "
                 "JOIN events e ON e.owner = u.id")
    assert len(stmt.joins) == 1
    join = stmt.joins[0]
    assert join.table == "events" and join.alias == "e"
    assert join.condition == BinaryOp(
        "=", ColumnRef("owner", "e"), ColumnRef("id", "u"))


def test_inner_join_keyword():
    stmt = parse("SELECT * FROM a INNER JOIN b ON b.x = a.x")
    assert stmt.joins[0].table == "b"


def test_left_join_rejected():
    with pytest.raises(ParseError):
        parse("SELECT * FROM a LEFT JOIN b ON b.x = a.x")


def test_select_aggregates():
    stmt = parse("SELECT COUNT(*), MAX(karma) FROM users")
    count = stmt.items[0].expression
    assert isinstance(count, FunctionCall) and count.name == "COUNT"
    assert isinstance(count.args[0], Star)
    assert stmt.items[1].expression.name == "MAX"


def test_select_count_distinct():
    stmt = parse("SELECT COUNT(DISTINCT owner) FROM events")
    assert stmt.items[0].expression.distinct


def test_select_without_from():
    stmt = parse("SELECT 1 + 2")
    assert stmt.table is None
    assert stmt.items[0].expression == BinaryOp("+", Literal(1), Literal(2))


def test_select_function_call():
    stmt = parse("SELECT USEC_NOW()")
    expr = stmt.items[0].expression
    assert expr == FunctionCall("USEC_NOW", ())


def test_select_params():
    stmt = parse("SELECT * FROM t WHERE a = ? AND b = ?")
    first = stmt.where.left.right
    second = stmt.where.right.right
    assert first == ParamRef(0)
    assert second == ParamRef(1)


def test_select_distinct():
    assert parse("SELECT DISTINCT a FROM t").distinct


def test_arithmetic_precedence():
    stmt = parse("SELECT 1 + 2 * 3")
    expr = stmt.items[0].expression
    assert expr == BinaryOp("+", Literal(1),
                            BinaryOp("*", Literal(2), Literal(3)))


def test_parenthesized_expression():
    stmt = parse("SELECT (1 + 2) * 3")
    expr = stmt.items[0].expression
    assert expr.op == "*"


def test_unary_minus():
    stmt = parse("SELECT -5")
    from repro.sql.ast import UnaryOp
    assert stmt.items[0].expression == UnaryOp("-", Literal(5))


# ------------------------------------------------------------------ DML
def test_insert():
    stmt = parse("INSERT INTO users (name, karma) VALUES ('bob', 3)")
    assert isinstance(stmt, InsertStatement)
    assert stmt.columns == ("name", "karma")
    assert stmt.rows == ((Literal("bob"), Literal(3)),)
    assert stmt.is_write


def test_insert_multi_row():
    stmt = parse("INSERT INTO t (a) VALUES (1), (2), (3)")
    assert len(stmt.rows) == 3


def test_insert_without_columns():
    stmt = parse("INSERT INTO t VALUES (1, 'x')")
    assert stmt.columns == ()


def test_insert_qualified_table():
    stmt = parse("INSERT INTO heartbeats.heartbeat (id, ts) "
                 "VALUES (1, USEC_NOW())")
    assert stmt.table == "heartbeats.heartbeat"
    assert stmt.rows[0][1] == FunctionCall("USEC_NOW", ())


def test_update():
    stmt = parse("UPDATE users SET karma = karma + 1 WHERE id = 7")
    assert isinstance(stmt, UpdateStatement)
    assert stmt.assignments[0][0] == "karma"
    assert stmt.where == BinaryOp("=", ColumnRef("id"), Literal(7))


def test_update_multiple_assignments():
    stmt = parse("UPDATE t SET a = 1, b = 'x'")
    assert len(stmt.assignments) == 2
    assert stmt.where is None


def test_delete():
    stmt = parse("DELETE FROM users WHERE id = 3")
    assert isinstance(stmt, DeleteStatement)
    assert stmt.where is not None


def test_delete_all():
    assert parse("DELETE FROM users").where is None


# ------------------------------------------------------------------ DDL
def test_create_table():
    stmt = parse(
        "CREATE TABLE users ("
        "id INTEGER PRIMARY KEY AUTO_INCREMENT, "
        "name VARCHAR(64) NOT NULL, "
        "karma INTEGER DEFAULT 0, "
        "bio TEXT)")
    assert isinstance(stmt, CreateTableStatement)
    id_col, name_col, karma_col, bio_col = stmt.columns
    assert id_col.primary_key and id_col.auto_increment
    assert name_col.type_arg == 64 and not name_col.nullable
    assert karma_col.default == Literal(0)
    assert bio_col.type_name == "TEXT"


def test_create_table_separate_primary_key():
    stmt = parse("CREATE TABLE t (a INTEGER, b TEXT, PRIMARY KEY (a))")
    assert stmt.columns[0].primary_key


def test_create_table_composite_pk_rejected():
    with pytest.raises(ParseError):
        parse("CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a, b))")


def test_create_table_if_not_exists():
    assert parse("CREATE TABLE IF NOT EXISTS t (a INTEGER PRIMARY KEY)"
                 ).if_not_exists


def test_create_index():
    stmt = parse("CREATE INDEX idx_owner ON events (owner)")
    assert isinstance(stmt, CreateIndexStatement)
    assert stmt.columns == ("owner",)
    assert not stmt.unique


def test_create_unique_index():
    assert parse("CREATE UNIQUE INDEX ux ON t (a)").unique


def test_create_database():
    stmt = parse("CREATE DATABASE heartbeats")
    assert isinstance(stmt, CreateDatabaseStatement)
    assert stmt.name == "heartbeats"


def test_drop_table():
    stmt = parse("DROP TABLE IF EXISTS old_stuff")
    assert isinstance(stmt, DropTableStatement)
    assert stmt.if_exists


def test_use():
    stmt = parse("USE cloudstone")
    assert isinstance(stmt, UseStatement)


# ----------------------------------------------------------- transactions
def test_transaction_control():
    assert isinstance(parse("BEGIN"), BeginStatement)
    assert isinstance(parse("START TRANSACTION"), BeginStatement)
    assert isinstance(parse("COMMIT"), CommitStatement)
    assert isinstance(parse("ROLLBACK"), RollbackStatement)
    assert parse("BEGIN").is_transaction_control


# -------------------------------------------------------------- robustness
def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse("SELECT 1 SELECT 2")


def test_semicolon_tolerated():
    assert isinstance(parse("SELECT 1;"), SelectStatement)


def test_unknown_statement_rejected():
    with pytest.raises(ParseError):
        parse("EXPLAIN SELECT 1")


def test_missing_values_keyword():
    with pytest.raises(ParseError):
        parse("INSERT INTO t (a) (1)")


def test_bad_column_type():
    with pytest.raises(ParseError):
        parse("CREATE TABLE t (a BLOB PRIMARY KEY)")
