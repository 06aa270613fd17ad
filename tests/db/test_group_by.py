"""GROUP BY / HAVING execution tests."""

import pytest

from repro.db import StorageEngine, standard_functions


@pytest.fixture
def engine():
    eng = StorageEngine(functions=standard_functions(lambda: 0.0),
                        default_database="app")
    eng.execute("CREATE TABLE sales (id INTEGER PRIMARY KEY "
                "AUTO_INCREMENT, region VARCHAR(8), product VARCHAR(8), "
                "amount INTEGER)")
    eng.execute("INSERT INTO sales (region, product, amount) VALUES "
                "('eu', 'a', 10), ('eu', 'b', 20), ('us', 'a', 30), "
                "('us', 'b', 40), ('us', 'a', 50), ('ap', 'c', 5)")
    return eng


def rows(engine, sql):
    return engine.execute(sql).result.rows


def test_group_by_count(engine):
    got = rows(engine, "SELECT region, COUNT(*) FROM sales "
               "GROUP BY region ORDER BY region")
    assert got == [("ap", 1), ("eu", 2), ("us", 3)]


def test_group_by_sum_avg(engine):
    got = rows(engine, "SELECT region, SUM(amount), AVG(amount) "
               "FROM sales GROUP BY region ORDER BY region")
    assert got == [("ap", 5, 5.0), ("eu", 30, 15.0), ("us", 120, 40.0)]


def test_group_by_multiple_keys(engine):
    got = rows(engine, "SELECT region, product, COUNT(*) FROM sales "
               "GROUP BY region, product ORDER BY region, product")
    assert ("us", "a", 2) in got
    assert len(got) == 5


def test_group_by_with_where(engine):
    got = rows(engine, "SELECT region, COUNT(*) FROM sales "
               "WHERE amount > 15 GROUP BY region ORDER BY region")
    assert got == [("eu", 1), ("us", 3)]


def test_having_filters_groups(engine):
    got = rows(engine, "SELECT region, COUNT(*) FROM sales "
               "GROUP BY region HAVING COUNT(*) >= 2 ORDER BY region")
    assert got == [("eu", 2), ("us", 3)]


def test_having_on_sum(engine):
    got = rows(engine, "SELECT region FROM sales GROUP BY region "
               "HAVING SUM(amount) > 100")
    assert got == [("us",)]


def test_order_by_aggregate(engine):
    got = rows(engine, "SELECT region FROM sales GROUP BY region "
               "ORDER BY SUM(amount) DESC")
    assert got == [("us",), ("eu",), ("ap",)]


def test_group_by_expression_key(engine):
    got = rows(engine, "SELECT amount % 20, COUNT(*) FROM sales "
               "GROUP BY amount % 20 ORDER BY amount % 20")
    assert got == [(0, 2), (5, 1), (10, 3)]


def test_aggregate_arithmetic_in_projection(engine):
    got = rows(engine, "SELECT region, SUM(amount) / COUNT(*) "
               "FROM sales GROUP BY region ORDER BY region")
    assert got == [("ap", 5.0), ("eu", 15.0), ("us", 40.0)]


def test_mysql_permissive_bare_column_with_aggregate(engine):
    # Pre-ONLY_FULL_GROUP_BY MySQL evaluates the bare column on an
    # arbitrary row of the (single) group.
    result = engine.execute("SELECT product, COUNT(*) FROM sales").result
    assert result.rows[0][1] == 6
    assert result.rows[0][0] in ("a", "b", "c")


def test_group_by_over_empty_set_yields_no_groups(engine):
    got = rows(engine, "SELECT region, COUNT(*) FROM sales "
               "WHERE amount > 999 GROUP BY region")
    assert got == []


def test_ungrouped_aggregate_over_empty_set_yields_one_row(engine):
    got = rows(engine, "SELECT COUNT(*), MAX(amount) FROM sales "
               "WHERE amount > 999")
    assert got == [(0, None)]


def test_having_without_group_by(engine):
    assert rows(engine, "SELECT COUNT(*) FROM sales "
                "HAVING COUNT(*) > 100") == []
    assert rows(engine, "SELECT COUNT(*) FROM sales "
                "HAVING COUNT(*) > 2") == [(6,)]


def test_group_by_limit_offset(engine):
    got = rows(engine, "SELECT region, COUNT(*) FROM sales "
               "GROUP BY region ORDER BY region LIMIT 1 OFFSET 1")
    assert got == [("eu", 2)]


def test_group_by_renders_and_round_trips(engine):
    from repro.sql import parse, render_statement
    sql = ("SELECT region, COUNT(*) FROM sales GROUP BY region "
           "HAVING (COUNT(*) >= 2) ORDER BY region")
    once = render_statement(parse(sql))
    assert render_statement(parse(once)) == once
    assert "GROUP BY" in once and "HAVING" in once


def test_group_by_count_distinct(engine):
    got = rows(engine, "SELECT region, COUNT(DISTINCT product) "
               "FROM sales GROUP BY region ORDER BY region")
    assert got == [("ap", 1), ("eu", 2), ("us", 2)]


def test_group_key_with_null(engine):
    engine.execute("INSERT INTO sales (region, product, amount) "
                   "VALUES (NULL, 'z', 1), (NULL, 'z', 2)")
    got = rows(engine, "SELECT region, COUNT(*) FROM sales "
               "GROUP BY region ORDER BY region")
    assert (None, 2) in got  # NULLs group together (MySQL semantics)

@pytest.mark.parametrize("sql, expected", [
    # Aggregates under every node type, not only binary operators.
    ("SELECT region FROM sales GROUP BY region "
     "HAVING COUNT(*) BETWEEN 2 AND 5 ORDER BY region", [("eu",), ("us",)]),
    ("SELECT -COUNT(*) FROM sales", [(-6,)]),
    ("SELECT COUNT(*) IS NULL FROM sales", [(False,)]),
    ("SELECT region FROM sales GROUP BY region HAVING COUNT(*) IN (3)",
     [("us",)]),
    ("SELECT region FROM sales GROUP BY region "
     "HAVING region LIKE 'u%' AND NOT MAX(amount) < 50", [("us",)]),
])
def test_aggregates_nest_under_any_operator(engine, sql, expected):
    assert rows(engine, sql) == expected
