"""Render AST nodes back to SQL text.

Statement-based replication ships *text*: the master binlog stores each
committed write statement with its parameters substituted as literals,
and slaves re-parse and re-execute it.  Non-deterministic function
calls (``USEC_NOW()``) are rendered as calls, so each replica evaluates
them against its own local clock — the exact mechanism the paper's
heartbeat measurement exploits.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from .ast import (BeginStatement, BetweenOp, BinaryOp, ColumnDef, ColumnRef,
                  CommitStatement, CreateDatabaseStatement,
                  CreateIndexStatement, CreateTableStatement,
                  DeleteStatement, DropTableStatement, Expression,
                  FunctionCall, InList, InsertStatement, IsNull, LikeOp,
                  Literal, ParamRef, RollbackStatement, SelectStatement,
                  Star, Statement, UnaryOp, UpdateStatement, UseStatement)

__all__ = ["render_statement", "render_expression", "render_literal"]


def render_literal(value: Any) -> str:
    """Format a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("\\", "\\\\").replace("'", "''")
    return f"'{escaped}'"


def render_expression(expr: Expression,
                      params: Optional[Sequence[Any]] = None) -> str:
    """Render an expression; ``params`` inlines ``?`` placeholders."""
    if isinstance(expr, ParamRef):  # first: what DML values mostly are
        if params is None:
            return "?"
        return render_literal(params[expr.index])
    if isinstance(expr, Literal):
        return render_literal(expr.value)
    if isinstance(expr, ColumnRef):
        return expr.qualified
    if isinstance(expr, Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, BinaryOp):
        left = render_expression(expr.left, params)
        right = render_expression(expr.right, params)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, UnaryOp):
        inner = render_expression(expr.operand, params)
        return f"(NOT {inner})" if expr.op == "NOT" else f"(-{inner})"
    if isinstance(expr, FunctionCall):
        args = ", ".join(render_expression(a, params) for a in expr.args)
        distinct = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({distinct}{args})"
    if isinstance(expr, InList):
        operand = render_expression(expr.operand, params)
        options = ", ".join(render_expression(o, params)
                            for o in expr.options)
        maybe_not = "NOT " if expr.negated else ""
        return f"({operand} {maybe_not}IN ({options}))"
    if isinstance(expr, BetweenOp):
        operand = render_expression(expr.operand, params)
        low = render_expression(expr.low, params)
        high = render_expression(expr.high, params)
        maybe_not = "NOT " if expr.negated else ""
        return f"({operand} {maybe_not}BETWEEN {low} AND {high})"
    if isinstance(expr, LikeOp):
        operand = render_expression(expr.operand, params)
        pattern = render_expression(expr.pattern, params)
        maybe_not = "NOT " if expr.negated else ""
        return f"({operand} {maybe_not}LIKE {pattern})"
    if isinstance(expr, IsNull):
        operand = render_expression(expr.operand, params)
        return f"({operand} IS {'NOT ' if expr.negated else ''}NULL)"
    raise TypeError(f"cannot render {type(expr).__name__}")


def render_statement(stmt: Statement,
                     params: Optional[Sequence[Any]] = None) -> str:
    """Render a statement back to SQL text."""
    if isinstance(stmt, SelectStatement):
        return _render_select(stmt, params)
    if isinstance(stmt, InsertStatement):
        columns = f" ({', '.join(stmt.columns)})" if stmt.columns else ""
        rows = ", ".join(
            "(" + ", ".join(render_expression(v, params) for v in row) + ")"
            for row in stmt.rows)
        return f"INSERT INTO {stmt.table}{columns} VALUES {rows}"
    if isinstance(stmt, UpdateStatement):
        sets = ", ".join(f"{col} = {render_expression(value, params)}"
                         for col, value in stmt.assignments)
        where = (f" WHERE {render_expression(stmt.where, params)}"
                 if stmt.where is not None else "")
        return f"UPDATE {stmt.table} SET {sets}{where}"
    if isinstance(stmt, DeleteStatement):
        where = (f" WHERE {render_expression(stmt.where, params)}"
                 if stmt.where is not None else "")
        return f"DELETE FROM {stmt.table}{where}"
    if isinstance(stmt, CreateTableStatement):
        columns = ", ".join(_render_column_def(c) for c in stmt.columns)
        ine = "IF NOT EXISTS " if stmt.if_not_exists else ""
        return f"CREATE TABLE {ine}{stmt.table} ({columns})"
    if isinstance(stmt, CreateIndexStatement):
        unique = "UNIQUE " if stmt.unique else ""
        cols = ", ".join(stmt.columns)
        return f"CREATE {unique}INDEX {stmt.name} ON {stmt.table} ({cols})"
    if isinstance(stmt, DropTableStatement):
        if_exists = "IF EXISTS " if stmt.if_exists else ""
        return f"DROP TABLE {if_exists}{stmt.table}"
    if isinstance(stmt, CreateDatabaseStatement):
        ine = "IF NOT EXISTS " if stmt.if_not_exists else ""
        return f"CREATE DATABASE {ine}{stmt.name}"
    if isinstance(stmt, UseStatement):
        return f"USE {stmt.name}"
    if isinstance(stmt, BeginStatement):
        return "BEGIN"
    if isinstance(stmt, CommitStatement):
        return "COMMIT"
    if isinstance(stmt, RollbackStatement):
        return "ROLLBACK"
    raise TypeError(f"cannot render {type(stmt).__name__}")


def _render_select(stmt: SelectStatement,
                   params: Optional[Sequence[Any]]) -> str:
    items = ", ".join(
        render_expression(item.expression, params)
        + (f" AS {item.alias}" if item.alias else "")
        for item in stmt.items)
    parts = [f"SELECT {'DISTINCT ' if stmt.distinct else ''}{items}"]
    if stmt.table:
        alias = f" AS {stmt.alias}" if stmt.alias else ""
        parts.append(f"FROM {stmt.table}{alias}")
    for join in stmt.joins:
        alias = f" AS {join.alias}" if join.alias else ""
        condition = render_expression(join.condition, params)
        parts.append(f"JOIN {join.table}{alias} ON {condition}")
    if stmt.where is not None:
        parts.append(f"WHERE {render_expression(stmt.where, params)}")
    if stmt.group_by:
        grouped = ", ".join(render_expression(g, params)
                            for g in stmt.group_by)
        parts.append(f"GROUP BY {grouped}")
    if stmt.having is not None:
        parts.append(f"HAVING {render_expression(stmt.having, params)}")
    if stmt.order_by:
        orders = ", ".join(
            render_expression(o.expression, params)
            + (" DESC" if o.descending else "")
            for o in stmt.order_by)
        parts.append(f"ORDER BY {orders}")
    if stmt.limit is not None:
        parts.append(f"LIMIT {stmt.limit}")
    if stmt.offset is not None:
        parts.append(f"OFFSET {stmt.offset}")
    return " ".join(parts)


def _render_column_def(col: ColumnDef) -> str:
    parts = [col.name, col.type_name]
    if col.type_arg is not None:
        parts[-1] += f"({col.type_arg})"
    if col.primary_key:
        parts.append("PRIMARY KEY")
    if col.auto_increment:
        parts.append("AUTO_INCREMENT")
    if not col.nullable and not col.primary_key:
        parts.append("NOT NULL")
    if col.default is not None:
        parts.append(f"DEFAULT {render_literal(col.default.value)}")
    return " ".join(parts)
